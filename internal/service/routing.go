package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"sort"

	"ctrlsched/internal/kmemo"
	"ctrlsched/internal/mat"
)

// Fingerprint-affinity routing. Every kernel result in the process-wide
// kmemo is keyed by a canonical plant fingerprint, so a fleet of
// replicas keeps its caches hot exactly when requests touching the same
// plant land on the same replica. RouteKey derives that routing
// identity from a raw request body without fully validating it — the
// gateway calls it on untrusted bytes and the chosen replica performs
// the real (strict) decode, so a malformed body only needs a
// deterministic key, not a correct one.
//
// The derivation, in order of preference:
//
//   - Requests naming library plants (analyze plant queries,
//     plant-backed tasks, codesign loops and base tasks) hash the
//     content fingerprints of the distinct plants they touch, sorted —
//     so two requests over the same plant agree on a replica no matter
//     which endpoint, period grid, or task mixture they arrive
//     through, and renaming a plant in the library does not move its
//     keyspace shard.
//   - Requests touching no plant (pure task-set schedulability
//     queries) hash the kind plus the raw body: identical requests
//     still stick to one replica, which keeps the result LRU and
//     flight coalescing effective across the fleet.
//   - Experiment campaigns report no affinity at all (ok false): they
//     are Monte-Carlo sweeps over generated task sets, so the gateway
//     spreads them round-robin for load balance instead.

// routeVersion tags the plant route fingerprints; bump it to reshuffle
// the keyspace deliberately (it does not affect results, only which
// replica serves which plant).
const routeVersion = 1

// routePlantFPs precomputes the content fingerprint of every library
// plant: the exact numerical inputs of a synthesis, so two
// differently-named plants with identical dynamics share a shard the
// same way they share kmemo entries.
var routePlantFPs = func() map[string]kmemo.Key {
	m := make(map[string]kmemo.Key, len(plantRegistry))
	for name, p := range plantRegistry {
		h := kmemo.NewHasher()
		h.Tag(routeVersion, 'R')
		hashRouteMat(h, p.Sys.A)
		hashRouteMat(h, p.Sys.B)
		hashRouteMat(h, p.Sys.C)
		hashRouteMat(h, p.Sys.D)
		h.Float(p.Sys.Ts)
		hashRouteMat(h, p.Q1)
		hashRouteMat(h, p.Q2)
		hashRouteMat(h, p.R1)
		h.Float(p.R2)
		m[name] = h.Sum()
	}
	return m
}()

func hashRouteMat(h *kmemo.Hasher, m *mat.Matrix) {
	if m == nil {
		h.Int(-1)
		return
	}
	h.Int(m.Rows())
	h.Int(m.Cols())
	h.Floats(m.RawData())
}

// Tolerant decode shapes: only the plant references matter, unknown
// fields and wrong types elsewhere are the replica's problem.
type routeTaskRef struct {
	Plant string `json:"plant"`
}

type routeAnalyzeRef struct {
	Plant string         `json:"plant"`
	Tasks []routeTaskRef `json:"tasks"`
}

type routeCodesignRef struct {
	BaseTasks []routeTaskRef `json:"base_tasks"`
	Loops     []routeTaskRef `json:"loops"`
}

// RouteKey derives the consistent-hash routing identity of one request
// body for the given kind ("analyze", "analyze_batch", "codesign", or
// an experiment kind). ok reports whether the request has an affinity
// identity at all; experiment kinds return ok false and should be
// spread round-robin.
func RouteKey(kind string, body []byte) (key [32]byte, ok bool) {
	switch kind {
	case kindAnalyze:
		var ref routeAnalyzeRef
		_ = json.Unmarshal(body, &ref)
		names := collectPlants(nil, ref)
		return routeDigest(kind, names, body), true
	case kindAnalyzeBatch:
		// A body the strict split refuses names no plant: it routes by
		// its bytes.
		items, _ := SplitItems(body, true)
		var names []string
		for _, item := range items {
			var ir routeAnalyzeRef
			_ = json.Unmarshal(item, &ir)
			names = collectPlants(names, ir)
		}
		return routeDigest(kind, names, body), true
	case kindCodesign:
		var ref routeCodesignRef
		_ = json.Unmarshal(body, &ref)
		var names []string
		for _, t := range ref.BaseTasks {
			names = appendPlant(names, t.Plant)
		}
		for _, l := range ref.Loops {
			names = appendPlant(names, l.Plant)
		}
		return routeDigest(kind, names, body), true
	default:
		return key, false
	}
}

func collectPlants(names []string, ref routeAnalyzeRef) []string {
	names = appendPlant(names, ref.Plant)
	for _, t := range ref.Tasks {
		names = appendPlant(names, t.Plant)
	}
	return names
}

func appendPlant(names []string, name string) []string {
	if name == "" {
		return names
	}
	return append(names, name)
}

// routeDigest hashes the sorted distinct plant fingerprints; with no
// plants, the kind plus the trimmed body (identical requests stick to
// one replica either way).
func routeDigest(kind string, names []string, body []byte) [32]byte {
	h := sha256.New()
	if len(names) == 0 {
		h.Write([]byte(kind))
		h.Write([]byte{0})
		h.Write(bytes.TrimSpace(body))
		var k [32]byte
		copy(k[:], h.Sum(nil))
		return k
	}
	sort.Strings(names)
	prev := ""
	for _, name := range names {
		if name == prev {
			continue
		}
		prev = name
		if fp, ok := routePlantFPs[name]; ok {
			h.Write(fp[:])
		} else {
			// Unknown plant: the replica will reject the request; the
			// name still yields a deterministic shard.
			h.Write([]byte(name))
			h.Write([]byte{0})
		}
	}
	var k [32]byte
	copy(k[:], h.Sum(nil))
	return k
}

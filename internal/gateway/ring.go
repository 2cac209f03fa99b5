package gateway

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// ring is a consistent-hash ring over the currently-ready replicas.
// Each replica owns vnodes points, so the keyspace splits near-evenly
// and a replica joining or leaving moves only ~1/N of the keys — the
// property that keeps every other replica's kernel memo hot across
// fleet changes. A ring is immutable once built; the gateway swaps
// whole rings atomically when the ready set changes.
type ring struct {
	points []ringPoint
	reps   []*replica // the ready set the ring was built from
}

type ringPoint struct {
	hash uint64
	rep  *replica
}

// vnodes spreads each replica over enough points that a two-replica
// fleet splits the plant keyspace close to evenly.
const vnodes = 64

// buildRing places vnodes points per replica, keyed by the replica URL,
// so the layout is stable across gateway restarts.
func buildRing(reps []*replica) *ring {
	r := &ring{reps: reps, points: make([]ringPoint, 0, len(reps)*vnodes)}
	for _, rep := range reps {
		for i := 0; i < vnodes; i++ {
			sum := sha256.Sum256([]byte(rep.url + "#" + strconv.Itoa(i)))
			r.points = append(r.points, ringPoint{hash: binary.BigEndian.Uint64(sum[:8]), rep: rep})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties (vanishingly rare) break deterministically by URL.
		return r.points[i].rep.url < r.points[j].rep.url
	})
	return r
}

// lookup returns the replica owning key: the first point clockwise from
// the key's position. Nil when the ring is empty.
func (r *ring) lookup(key [32]byte) *replica {
	if len(r.points) == 0 {
		return nil
	}
	h := binary.BigEndian.Uint64(key[:8])
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].rep
}

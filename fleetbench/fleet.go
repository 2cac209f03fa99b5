package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ctrlsched/internal/gateway"
	"ctrlsched/internal/jobs"
	"ctrlsched/internal/service"
)

// replicaNames are the fixed replica base URLs the gateway's ring is
// built from. The ring places its points by URL, so ephemeral listener
// ports would reshuffle plant ownership on every run; these names put
// three library plants on one replica and two on the other, and six of
// the ten plant pairs on one and four on the other (pinned by
// TestReplicaNamesSplitPlants). The gateway's HTTP client dials each
// name to the replica's real listener.
var replicaNames = [2]string{"http://replica-0", "http://replica-1"}

// replica is one in-process ctrlschedd: a service.Service behind a
// real loopback listener.
type replica struct {
	srv  *http.Server
	base string // http://127.0.0.1:port, for the benchmark's own /healthz reads
}

// fleet is two replicas behind one gateway, each piece served over its
// own loopback listener exactly as cmd/ctrlschedd and cmd/ctrlgw serve
// them.
type fleet struct {
	reps   [2]*replica
	gw     *gateway.Gateway
	gwSrv  *http.Server
	gwURL  string
	up     *upstream
	stop   func()       // stops the health loop and waits for it
	direct *http.Client // the benchmark's own client for /healthz reads
}

// serviceDefaults returns the replica configuration cmd/ctrlschedd runs
// with when given no flags, so the fleet tracks production defaults.
func serviceDefaults() service.Config {
	fs := flag.NewFlagSet("ctrlschedd", flag.ContinueOnError)
	cfg := service.RegisterFlags(fs)
	_ = fs.Parse(nil) // no arguments: cannot fail
	return *cfg
}

// gatewayDefaults mirrors cmd/ctrlgw's flag defaults.
func gatewayDefaults() gateway.Options {
	return gateway.Options{
		HealthEvery:      2 * time.Second,
		MaxConcurrent:    64,
		MaxQueue:         256,
		PerClient:        32,
		DrainGrace:       2 * time.Second,
		BreakerThreshold: 3,
		BreakerCooldown:  5 * time.Second,
		RetryTokens:      32,
		RetryRefill:      1,
		DeadlineAnalyze:  time.Minute,
		DeadlineCodesign: 10 * time.Minute,
		DeadlineJobs:     15 * time.Second,
	}
}

// newFleet starts two replicas with their durable stores and journals
// under dir, and a gateway in front of them. The tracer's wrappers sit
// around every replica handler, the gateway handler, and the gateway's
// outbound client.
func newFleet(dir string, tr *tracer) (*fleet, error) {
	f := &fleet{direct: &http.Client{Timeout: 10 * time.Second}}
	addrs := make(map[string]string, len(replicaNames))
	for i := range f.reps {
		cfg := serviceDefaults()
		cfg.JobsDir = filepath.Join(dir, fmt.Sprintf("replica-%d", i))
		cfg.StoreFS = tmpfsSync{jobs.OSFS()}
		svc := service.New(cfg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, fmt.Errorf("listen replica %d: %w", i, err)
		}
		srv := svc.NewServer("")
		srv.Handler = tr.handler(spanHandler, i, srv.Handler)
		f.reps[i] = &replica{srv: srv, base: "http://" + ln.Addr().String()}
		addrs[hostOf(replicaNames[i])+":80"] = ln.Addr().String()
		go serve(srv, ln)
	}

	dialer := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		real, ok := addrs[addr]
		if !ok {
			return nil, fmt.Errorf("fleetbench: no replica named %s", addr)
		}
		return dialer.DialContext(ctx, network, real)
	}
	f.up = newUpstream(base, tr)

	opt := gatewayDefaults()
	opt.Replicas = replicaNames[:]
	opt.Client = &http.Client{Transport: f.up}
	gw, err := gateway.New(opt)
	if err != nil {
		f.close()
		return nil, fmt.Errorf("gateway: %w", err)
	}
	f.gw = gw
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, fmt.Errorf("listen gateway: %w", err)
	}
	f.gwURL = "http://" + ln.Addr().String()
	f.gwSrv = gw.NewServer("")
	f.gwSrv.Handler = tr.handler(spanGateway, -1, f.gwSrv.Handler)
	go serve(f.gwSrv, ln)

	ctx, stop := context.WithCancel(context.Background())
	// HealthLoop probes once before its first tick, as cmd/ctrlgw does.
	done := make(chan struct{})
	go func() {
		defer close(done)
		gw.HealthLoop(ctx)
	}()
	f.stop = func() { stop(); <-done }
	return f, nil
}

// serve runs srv on ln until close. A listener that fails early leaves
// its requests failing, which fails the run.
func serve(srv *http.Server, ln net.Listener) {
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "fleetbench: serve %s: %v\n", ln.Addr(), err)
	}
}

func hostOf(url string) string {
	const scheme = "http://"
	return url[len(scheme):]
}

// ready waits until the gateway's readiness probe answers 200 with both
// replicas in rotation.
func (f *fleet) ready(ctx context.Context) error {
	f.gw.CheckReplicas(ctx)
	deadline := time.Now().Add(10 * time.Second)
	for {
		var doc struct {
			Replicas []struct {
				Ready bool `json:"ready"`
			} `json:"replicas"`
		}
		err := f.getJSON(f.gwURL+"/healthz", &doc)
		if err == nil {
			up := 0
			for _, r := range doc.Replicas {
				if r.Ready {
					up++
				}
			}
			if up == len(f.reps) {
				if status, _, err := f.get(f.gwURL + "/readyz"); err == nil && status == http.StatusOK {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet not ready after 10s (last error: %v)", err)
		}
		time.Sleep(10 * time.Millisecond)
		f.gw.CheckReplicas(ctx)
	}
}

func (f *fleet) get(url string) (int, []byte, error) {
	resp, err := f.direct.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (f *fleet) getJSON(url string, v any) error {
	status, b, err := f.get(url)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, status)
	}
	return json.Unmarshal(b, v)
}

// close stops the health loop and every listener. Idle and in-flight
// connections are closed, so no goroutine of this fleet keeps serving.
func (f *fleet) close() {
	if f.stop != nil {
		f.stop()
	}
	if f.gwSrv != nil {
		_ = f.gwSrv.Close()
	}
	for _, r := range f.reps {
		if r != nil {
			_ = r.srv.Close()
		}
	}
	if f.up != nil {
		f.up.base.CloseIdleConnections()
	}
	f.direct.CloseIdleConnections()
}

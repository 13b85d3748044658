package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/obs"
	"caltrain/internal/serve"
)

// tracing returns a deployment's tracer settings: nothing sampled or
// kept in the untraced run (the default would sample every request),
// everything sampled and kept in the traced run.
func tracing(traced bool) obs.TracerOptions {
	if traced {
		return obs.TracerOptions{SampleRate: 1, StoreSize: tracedStoreSize}
	}
	return obs.TracerOptions{SampleRate: 0, StoreSize: -1}
}

func observability(traced bool) *serve.ObservabilityConfig {
	t := tracing(traced)
	return &serve.ObservabilityConfig{Trace: &serve.TraceConfig{SampleRate: t.SampleRate, StoreSize: t.StoreSize}}
}

// running is a built deployment serving on its own loopback listener.
type running struct {
	srv    *serve.Server
	url    string
	cancel context.CancelFunc
	done   chan error
	once   sync.Once
	err    error
}

func start(srv *serve.Server) (*running, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &running{srv: srv, url: "http://" + l.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { r.done <- srv.Serve(ctx, l, 5*time.Second) }()
	return r, nil
}

// stop drains the listener, waits for Serve to return and closes the
// deployment's write paths. Later calls return the first call's error.
func (r *running) stop() error {
	r.once.Do(func() {
		r.cancel()
		err := <-r.done
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		r.err = errors.Join(err, r.srv.Close())
	})
	return r.err
}

// healthy waits until the server answers /v1/healthz.
func healthy(url string) error {
	c := fingerprint.NewClient(url, &http.Client{Timeout: 5 * time.Second})
	return c.Healthz()
}

// timedSpec delegates to a backend spec and adds up the time its Build
// calls take: index training for IVFPQ, the flat copy for Flat.
type timedSpec struct {
	serve.BackendSpec
	mu    sync.Mutex
	total time.Duration
}

func (s *timedSpec) Build(db *fingerprint.DB) (fingerprint.Searcher, error) {
	t := time.Now()
	sr, err := s.BackendSpec.Build(db)
	s.mu.Lock()
	s.total += time.Since(t)
	s.mu.Unlock()
	return sr, err
}

func (s *timedSpec) elapsed() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// heapMB is the Go heap in use after a forced collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// bytesPerEntry is the searcher's index footprint per linkage.
func bytesPerEntry(sr fingerprint.Searcher) float64 {
	vb, ok := sr.(interface{ VectorBytes() int64 })
	if !ok || sr.Len() == 0 {
		return 0
	}
	return float64(vb.VectorBytes()) / float64(sr.Len())
}

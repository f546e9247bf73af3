package obs

import (
	"context"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// StartDebug starts an HTTP server on addr exposing the stdlib
// diagnostics endpoints — /debug/pprof/* (net/http/pprof) and
// /debug/vars (expvar) — and returns the bound address (useful with a
// ":0" listener). The server runs on its own goroutine; the command
// gates it behind a -debug-addr flag, so nothing listens unless
// explicitly requested. A dedicated mux is used instead of
// http.DefaultServeMux so importing this package never mutates global
// handler state. The returned stop function gracefully drains the
// server (the service calls it on SIGTERM so the diagnostics listener
// does not outlive what it observes). The debug surface is read-only
// diagnostics, so its ReadHeaderTimeout guards against idle connection
// exhaustion without limiting a long pprof profile stream.
func StartDebug(addr string) (string, func(context.Context) error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go srv.Serve(ln) //nolint:errcheck // best-effort debug endpoint
	return ln.Addr().String(), srv.Shutdown, nil
}

// PublishExpvar exposes the Metrics snapshot as an expvar variable, so
// a -debug-addr server serves live aggregates at /debug/vars. Expvar
// names are process-global and re-publishing panics, so a second call
// with the same name is ignored.
func PublishExpvar(name string, m *Metrics) {
	if m == nil || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return m.Snapshot() }))
}

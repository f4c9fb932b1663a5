// The optional -metrics-addr HTTP endpoint: Prometheus text exposition at
// /metrics and the net/http/pprof profiling handlers under /debug/pprof/.
//
// The handlers are mounted on a private mux — never http.DefaultServeMux —
// so embedding a Server cannot leak profiling endpoints into an
// application's own HTTP surface, and two Servers in one process (the
// replication tests) don't fight over registration.
package kvserver

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// startMetricsHTTP binds the metrics listener and starts serving. Called
// from Start when Config.MetricsAddr is set; the goroutine exits when
// stop closes the http.Server.
func (s *Server) startMetricsHTTP(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("kvserver: metrics listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.metrics.registry.WriteText(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.metricsLn = ln
	s.metricsSrv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.metricsSrv.Serve(ln)
	}()
	return nil
}

// MetricsAddr returns the bound metrics listen address, or "" when the
// endpoint is off (valid after Start).
func (s *Server) MetricsAddr() string {
	if s.metricsLn == nil {
		return ""
	}
	return s.metricsLn.Addr().String()
}

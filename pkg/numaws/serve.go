package numaws

// The sweep service's public face: the facade owns construction and
// lifecycle (store, listener, graceful drain) and hands the HTTP surface
// itself to internal/server. `numaws serve` is a thin shell over this
// file, so embedders can mount the same service in their own process —
// Handler composes with any mux — or run it standalone with
// ListenAndServe.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/exec"
	"repro/internal/server"
	"repro/internal/store"
)

// ServerConfig configures NewServer.
type ServerConfig struct {
	// Addr is the listen address for ListenAndServe (host:port; port 0
	// picks a free port). Default "localhost:8080".
	Addr string
	// Store is the path of the persistent content-addressed result store
	// (a CRC-checksummed JSONL file, created if missing). Required: the
	// store is the service's whole point.
	Store string
	// Jobs bounds concurrent simulations across all requests; below 1
	// means one per CPU.
	Jobs int
	// MaxGridRuns caps a single grid request's run count; below 1 means
	// the server default.
	MaxGridRuns int
	// Logf, when non-nil, receives the service's log lines (the bound
	// address, store corruption notes, aborted grids).
	Logf func(format string, args ...any)
}

// Server is a sweep service instance: a result store plus the HTTP
// surface over it. Close releases the store.
type Server struct {
	addr  string
	logf  func(string, ...any)
	st    *store.Store
	inner *server.Server
}

// NewServer opens (or creates) the result store and builds the service
// over it. A store with a torn tail is healed at open — the corrupt
// records are dropped, counted, and reported through Logf and /statusz.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Store == "" {
		return nil, fmt.Errorf("numaws: NewServer: Store path is required")
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "localhost:8080"
	}
	jobs := cfg.Jobs
	if jobs < 1 {
		jobs = exec.DefaultJobs()
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	st, err := store.Open(cfg.Store)
	if err != nil {
		return nil, fmt.Errorf("numaws: %w", err)
	}
	inner, err := server.New(server.Config{
		Store: st, Jobs: jobs, MaxGridRuns: cfg.MaxGridRuns, Logf: logf,
	})
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("numaws: %w", err)
	}
	if c := st.Counters(); c.Skipped > 0 {
		logf("numaws: store %s: replayed %d record(s), dropped %d torn/corrupt line(s)",
			cfg.Store, c.Records, c.Skipped)
	}
	return &Server{addr: addr, logf: logf, st: st, inner: inner}, nil
}

// Handler returns the service's HTTP handler, for embedding in another
// server or driving through httptest.
func (s *Server) Handler() http.Handler { return s.inner.Handler() }

// ListenAndServe binds the configured address, logs the resolved one, and
// serves until ctx is cancelled. Cancellation drains gracefully: the
// listener closes, in-flight grid streams run to completion (their rows
// are already durable as they finish), and only then does ListenAndServe
// return nil.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		return fmt.Errorf("numaws: %w", err)
	}
	s.logf("numaws: serving on http://%s (store %s)", ln.Addr(), s.st.Path())
	hs := newHTTPServer(s.inner.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return fmt.Errorf("numaws: serve: %w", err)
	case <-ctx.Done():
		// The drain must outlive the cancelled accept context — derive
		// from it rather than minting a fresh root.
		if err := hs.Shutdown(context.WithoutCancel(ctx)); err != nil {
			return fmt.Errorf("numaws: shutdown: %w", err)
		}
		<-errc // Serve has returned http.ErrServerClosed
		return nil
	}
}

// The service's connection timeouts. A client gets readHeaderTimeout to
// send a request's headers and may hold an idle keep-alive connection for
// idleTimeout. There is deliberately no write timeout: a grid stream lasts
// as long as its simulations do.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the service's handler in an http.Server with the
// connection timeouts set.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// Close releases the result store. Records are fsync'd as they are
// written, so Close loses nothing; safe to call twice.
func (s *Server) Close() error { return s.st.Close() }

package numaws

import (
	"net/http"
	"testing"
)

// The service's http.Server bounds how long a client may take to send
// headers and how long an idle connection lives, but never cuts off a
// response: a grid stream runs as long as its simulations.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 (grid streams are long-lived)", hs.WriteTimeout)
	}
}

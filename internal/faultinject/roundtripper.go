package faultinject

import "net/http"

// RoundTripper wraps an http.RoundTripper with transport-site fault
// injection: Error rules fail the request before it reaches the base
// transport, Hang rules wedge it until the request context gives up, and
// Delay rules add latency. A nil Injector is transparent, so the wrapper
// can be left installed in production configurations.
type RoundTripper struct {
	Base     http.RoundTripper
	Injector *Injector
}

// RoundTrip implements http.RoundTripper.
func (rt *RoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if rt.Injector != nil {
		if err := rt.Injector.Transport(req.Context()); err != nil {
			return nil, err
		}
	}
	base := rt.Base
	if base == nil {
		base = http.DefaultTransport
	}
	return base.RoundTrip(req)
}

package artifact

import "context"

// RouteKey resolves req against the registry and returns the cluster
// routing key the artifact shards on — the family member's fingerprint,
// whatever the format — plus the request with its parameter resolved.
// Resolution is memoised in the member tier; errors use the package's
// sentinel classification.
func (p *Pipeline) RouteKey(req Request) (string, Request, error) {
	mb, err := p.resolve(context.Background(), req)
	if err != nil {
		return "", req, err
	}
	req.Param = mb.Param
	return mb.route, req, nil
}

// cancelled is a context that has already ended.
var cancelled = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// Probe reports the completed Result for req if it is available without
// rendering: from a finished render-tier entry or the attached store. It
// never generates and never waits — a clustered replica uses it to decide
// between serving a warm copy and proxying to the owner — yet what it
// finds in the store it retains in the render tier, so a warm replica
// reads and verifies a stored artefact once, not per request.
//
// It is a Render by a caller that has already gone: under an ended
// context the member and render tiers still hand over a completed entry
// and return at once from an in-flight one, and as leader the render tier
// consults the store and stops before producing. The resulting
// cancellation is retained nowhere, and a live Render coalesced behind it
// retries as leader.
func (p *Pipeline) Probe(req Request) (Result, bool) {
	res := p.render(cancelled, req)
	return res, res.Err == nil
}

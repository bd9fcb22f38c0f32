package asagen

import "asagen/internal/core"

// ClientOption configures a Client at construction time.
type ClientOption func(*clientConfig)

type clientConfig struct {
	jobs       int
	cacheLimit int
	isolated   bool
	genOpts    []GenerateOption
}

// WithJobs bounds the worker pool used by RenderAll and Stream. Values
// below 1 select GOMAXPROCS.
func WithJobs(n int) ClientOption {
	return func(c *clientConfig) { c.jobs = n }
}

// WithCacheLimit bounds the number of generated machines the client keeps
// memoised; least recently used machines are evicted beyond it. Zero (the
// default) means unbounded. Long-running services should set a limit so an
// unbounded parameter stream cannot grow memory without bound.
func WithCacheLimit(n int) ClientOption {
	return func(c *clientConfig) { c.cacheLimit = n }
}

// WithIsolatedRegistry gives the client its own clone of the scenario
// registry (seeded with the built-in models), so RegisterModel and
// UnregisterModel never affect — and are never affected by — other
// clients in the process. Long-running multi-tenant services should
// isolate; short-lived tools may prefer the shared default.
func WithIsolatedRegistry() ClientOption {
	return func(c *clientConfig) { c.isolated = true }
}

// WithGenerateOptions applies generation options to every machine the
// client generates or renders. Options that change the generated machine
// are part of the machine's identity, so clients constructed with
// different options never share cached work.
func WithGenerateOptions(opts ...GenerateOption) ClientOption {
	return func(c *clientConfig) { c.genOpts = append(c.genOpts, opts...) }
}

// GenerateOption configures one Generate call (or, via
// WithGenerateOptions, every generation a client performs).
type GenerateOption struct {
	// opt is the core option of a behaviour-changing option; nil for
	// request-scoped options like WithParam.
	opt core.Option
	// param/setParam carry WithParam.
	param    int
	setParam bool
	// fresh marks WithoutCache.
	fresh bool
}

// WithParam selects the model parameter (replication factor, process
// count, fan-out bound — see ModelInfo.ParamName). Values <= 0 select the
// model's default. Ignored when passed at client level.
func WithParam(r int) GenerateOption {
	return GenerateOption{param: r, setParam: true}
}

// WithoutCache makes the Generate call bypass the client's machine cache:
// the machine is generated from scratch and not memoised. Intended for
// benchmarking generation cost.
func WithoutCache() GenerateOption {
	return GenerateOption{fresh: true}
}

// WithoutMerging disables the equivalent-state merging step (§3.4 step 4).
func WithoutMerging() GenerateOption {
	return GenerateOption{opt: core.WithoutMerging()}
}

// WithoutDescriptions skips attaching per-state documentation, which
// speeds up generation for large parameter values.
func WithoutDescriptions() GenerateOption {
	return GenerateOption{opt: core.WithoutDescriptions()}
}

// splitGenerateOptions separates request-scoped parts (param, fresh) from
// behaviour-changing core options.
func splitGenerateOptions(opts []GenerateOption) (param int, setParam, fresh bool, coreOpts []core.Option) {
	for _, o := range opts {
		if o.setParam {
			param, setParam = o.param, true
		}
		if o.fresh {
			fresh = true
		}
		if o.opt != nil {
			coreOpts = append(coreOpts, o.opt)
		}
	}
	return param, setParam, fresh, coreOpts
}

// RenderOption configures one Machine.Render call.
type RenderOption struct {
	goPackage string
}

// WithGoPackage sets the package clause of the "go" format's generated
// source. Empty (the default) derives the name from the machine.
func WithGoPackage(name string) RenderOption {
	return RenderOption{goPackage: name}
}

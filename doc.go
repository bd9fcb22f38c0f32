// Package asagen is the public SDK of a reproduction of "Design,
// Implementation and Deployment of State Machines Using a Generative
// Approach" (Kirby, Dearle, Norcross; DSN 2007): a generative
// methodology in which a distributed algorithm whose state space depends
// on a parameter is captured once as an abstract model, from which a
// family of finite state machines — and their textual, diagrammatic,
// documentary and source-code artefacts — are generated.
//
// The facade is Client: it exposes the scenario registry (Models), the
// artefact formats (Formats), context-aware machine generation
// (Generate), memoised artefact rendering (Render, and the RenderAll /
// Stream iterators), and interpreter execution of generated machines
// (Machine.NewInstance). Generation is reachability-first and memoised
// per model fingerprint: concurrent first requests share one in-flight
// generation, and cancelling a request's context aborts its generation
// promptly without poisoning the cache.
//
// Scenarios are authorable without touching this repository: a
// declarative ModelSpec (states, messages, guarded rules, EFSM
// abstraction hints) compiles into the same abstract-model form the
// built-ins use and registers dynamically — Client.RegisterModel /
// UnregisterModel on the SDK, POST and DELETE on /v1/models over the
// wire, and `fsmgen -spec` on the command line. See the "Authoring your
// own model" section of README.md and examples/customspec.
//
// Failures classify under the package's sentinel errors —
// ErrUnknownModel, ErrUnknownFormat, ErrNoEFSM, ErrRender,
// ErrModelExists, ErrInvalidSpec — while keeping the detailed messages of
// the underlying layers.
//
// The same capabilities are served over HTTP by `fsmgen serve` as the
// versioned /v1 API (see API.md). See DESIGN.md for the system
// inventory, EXPERIMENTS.md for the paper-versus-measured record, and
// bench_test.go for the benchmark harness that regenerates the paper's
// evaluation.
package asagen

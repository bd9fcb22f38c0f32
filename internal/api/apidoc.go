package api

import (
	"fmt"
	"strings"
)

// Markdown renders the route table as the API.md document checked into
// the repository root. The document is generated from the same Route list
// the handler serves, and a test fails when the checked-in file drifts
// (regenerate with `go test ./internal/api -run TestAPIDocument -update`).
func (h *Handler) Markdown() string {
	var b strings.Builder
	b.WriteString("# asagen wire API\n\n")
	b.WriteString("<!-- Generated from internal/api; do not edit by hand.\n")
	b.WriteString("     Regenerate: go test ./internal/api -run TestAPIDocument -update -->\n\n")
	b.WriteString("The HTTP generation service started by `fsmgen serve`. Methods not\n")
	b.WriteString("listed for a path are answered `405` with an `Allow` header.\n")
	b.WriteString("Artefact responses carry a content-hash `ETag`, `Cache-Control` and\n")
	b.WriteString("`Vary` headers, and revalidate via `If-None-Match` to `304`. Every\n")
	b.WriteString("format of one family member — the EFSM formats included — is a\n")
	b.WriteString("rendering of the member's one generated machine and names it in\n")
	b.WriteString("`X-Machine-Fingerprint`. Closing\n")
	b.WriteString("the connection mid-request cancels the generation server-side (the\n")
	b.WriteString("abort is visible as `cancellations` in `/v1/stats`).\n\n")
	b.WriteString("The model collection is writable: `POST /v1/models` accepts a\n")
	b.WriteString("declarative JSON model spec (see the \"Authoring your own model\"\n")
	b.WriteString("section of README.md) and registers it for immediate generation and\n")
	b.WriteString("rendering; `DELETE /v1/models/{model}` unregisters a model and purges\n")
	b.WriteString("its cached machines and artefacts. Registrations are scoped to the\n")
	b.WriteString("serving instance — concurrent servers never share mutable state.\n\n")
	b.WriteString("`PUT /v1/models/{model}` registers (`201`) or replaces (`200`) a model\n")
	b.WriteString("in place; the spec's `name` must match the path segment. Replacing a\n")
	b.WriteString("spec-defined model with an edit that keeps its components, messages\n")
	b.WriteString("and start state intact does not discard the cached machines: the edit\n")
	b.WriteString("is diffed rule-by-rule and the next artefact request regenerates each\n")
	b.WriteString("affected machine incrementally from its cached exploration (visible\n")
	b.WriteString("as `Incremental` in `/v1/stats`). Structural edits fall back to full\n")
	b.WriteString("regeneration transparently.\n\n")

	b.WriteString("## Versioned routes (`/v1`)\n\n")
	b.WriteString("| Method | Path | Query | Description |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, r := range h.routes {
		fmt.Fprintf(&b, "| %s | `%s` | %s | %s |\n",
			r.Method, r.Pattern, queryCell(r.Query), r.Summary)
	}

	b.WriteString("\n## Trace conformance stream\n\n")
	b.WriteString("`POST /v1/models/{model}/check` checks the request body — a trace,\n")
	b.WriteString("one event per line — against the model's generated machine and\n")
	b.WriteString("answers with a Server-Sent Events stream (`text/event-stream`), one\n")
	b.WriteString("event per verdict. The trace is judged at line rate as it arrives:\n")
	b.WriteString("neither side buffers the whole trace, so arbitrarily long streams\n")
	b.WriteString("check in bounded memory, and closing the request cancels the run\n")
	b.WriteString("server-side. Each event's name is the verdict kind and its `data`\n")
	b.WriteString("line is the canonical verdict JSON — byte-identical to the output of\n")
	b.WriteString("`fsmgen check -json` and the SDK's `Client.Check` for the same trace:\n\n")
	b.WriteString("```\nevent: accepted\ndata: {\"line\":3,\"event\":\"VOTE\",\"kind\":\"accepted\",\"state\":\"T/1/T/0/F/F/F\",\"actions\":[\"->vote\"]}\n```\n\n")
	b.WriteString("Delivery guarantee: every verdict for the input received so far is\n")
	b.WriteString("on the wire before the server waits for more input. A live producer\n")
	b.WriteString("sending a line at a time reads each verdict before it sends the next\n")
	b.WriteString("line; a trace posted in one piece is answered in a few large writes,\n")
	b.WriteString("so several events may share one chunk. A client that stops reading\n")
	b.WriteString("its stream is disconnected after 30 seconds without progress.\n\n")
	b.WriteString("Verdict fields (omitted when empty): `line` (1-based trace line),\n")
	b.WriteString("`target` (machine label, only when checking several), `event`\n")
	b.WriteString("(delivered message), `kind`, `state` (machine state after the\n")
	b.WriteString("delivery), `actions` (performed by an accepted delivery), `detail`\n")
	b.WriteString("(rejection, skip or decode-failure reason), `stats` (summary only).\n\n")
	b.WriteString("| Kind | Meaning |\n")
	b.WriteString("|---|---|\n")
	b.WriteString("| `accepted` | the machine consumed the message; a transition fired |\n")
	b.WriteString("| `ignored` | rejected delivery absorbed by the `tolerance` budget |\n")
	b.WriteString("| `skipped` | no transition pattern matched the line (`regex` format) |\n")
	b.WriteString("| `finished` | the machine reached its finish state |\n")
	b.WriteString("| `violation` | rejected delivery with the budget exhausted — the trace does not conform |\n")
	b.WriteString("| `summary` | terminal event of a completed run; `stats` carries line/event/verdict counts, `first_violation` and `final_state` |\n\n")
	b.WriteString("Every stream ends with exactly one terminal event: `summary` (run\n")
	b.WriteString("completed — conforming when `stats.violations` is 0), or `error`\n")
	b.WriteString("whose data is the standard error envelope (`bad_trace` for\n")
	b.WriteString("undecodable input, `trace_aborted` for a failed trace read).\n")
	b.WriteString("Preflight failures — unknown model, bad parameter, bad pattern —\n")
	b.WriteString("are ordinary JSON-envelope responses; the event stream never starts.\n")

	b.WriteString("\n## Cluster tier\n\n")
	b.WriteString("A server started with `-cluster` joins a peer ring (see DESIGN.md,\n")
	b.WriteString("\"Cluster tier\"): artifact requests shard across nodes by consistent\n")
	b.WriteString("hashing on the machine fingerprint (all seven formats of a family\n")
	b.WriteString("member share it, hence one owner), and `GET /v1/cluster` reports the\n")
	b.WriteString("gossiped membership view, the hash ring and the chord routing-oracle\n")
	b.WriteString("state (a standalone server answers `{\"enabled\": false}`). Clustered\n")
	b.WriteString("artefact responses carry `X-Asagen-Node` (the node whose pipeline\n")
	b.WriteString("produced the bytes) and `X-Asagen-Route` (`owner`, `replica` or\n")
	b.WriteString("`proxied`); a proxied response adds `X-Asagen-Proxied-By`. The\n")
	b.WriteString("`/v1/cluster/gossip` and `/v1/cluster/artifacts` routes are the\n")
	b.WriteString("cluster-internal transport — peers exchange membership views and push\n")
	b.WriteString("rendered artefacts to replicas through them; they answer\n")
	b.WriteString("`not_clustered` on standalone servers.\n")

	b.WriteString("\n## Error envelope\n\n")
	b.WriteString("Failures are reported as JSON:\n\n")
	b.WriteString("```json\n{\"error\": {\"code\": \"unknown_model\", \"message\": \"...\"}}\n```\n\n")
	b.WriteString("| Code | Status | Meaning |\n")
	b.WriteString("|---|---|---|\n")
	b.WriteString("| `unknown_model` | 404 | model name absent from the registry |\n")
	b.WriteString("| `unknown_format` | 404 | format name absent from the registry |\n")
	b.WriteString("| `no_efsm` | 400 | EFSM format requested for a model without an EFSM generalisation |\n")
	b.WriteString("| `bad_parameter` | 400 | unparsable or model-rejected parameter value |\n")
	b.WriteString("| `render_failed` | 500 | renderer failure on a well-formed request |\n")
	b.WriteString("| `generation_aborted` | 503 | shared in-flight generation aborted by another request's disconnect; retry |\n")
	b.WriteString("| `invalid_spec` | 400 | model spec rejected; the message lists every diagnostic with its document path. Besides structural faults this covers what the `go` format could not render: `messages[i]` or `rules[i].actions[j]` whose generated method name (`Machine.ReceiveNotFree`, `Actions.SendNotFree`) is already taken by another message or action (both are named) or is the dispatcher's own `Machine.Receive`, and free text with control characters, a byte order mark, invalid UTF-8 or a leading `+build`. The body itself is held to the strict reading of JSON, each breach a parse error with line and column: an object names a key once (`duplicate key \"rules\"`), in its exact case and from the schema (`unknown field \"NAME\"`), strings are valid UTF-8, and an integer has no fraction or exponent (`2`, not `2.0` or `2e0`); `null` anywhere means the value is absent |\n")
	b.WriteString("| `model_exists` | 409 | spec name already registered; unregister it first to replace |\n")
	b.WriteString("| `bad_trace` | 400 (or in-stream `error` event) | bad trace format/pattern, or undecodable trace content |\n")
	b.WriteString("| `trace_aborted` | in-stream `error` event | trace body read failed mid-check |\n")
	b.WriteString("| `not_clustered` | 404 | cluster-internal route on a server not started with `-cluster` |\n")
	b.WriteString("| `bad_cluster_payload` | 400 | undecodable gossip view or propagation blob, or a blob failing content verification |\n")
	b.WriteString("| `proxy_failed` | 502 | the key's owning node was unreachable while proxying; retry after the next gossip round |\n")
	b.WriteString("| `not_found` | 404 | no such route |\n")
	b.WriteString("| `method_not_allowed` | 405 | method not served on the path; see the `Allow` header |\n")
	return b.String()
}

func queryCell(query []string) string {
	if len(query) == 0 {
		return "—"
	}
	return "`" + strings.Join(query, "`; `") + "`"
}

package chord

// Message types of the registry's chord-membership machine: the node-local
// observations the Chord maintenance protocol reacts to. cluster.Oracle
// replays a node's routing state through that machine with them.
const (
	// EvJoin bootstraps the node into the overlay.
	EvJoin = "JOIN"
	// EvStabilize reports a stabilisation round that adopted one further
	// live successor-list entry.
	EvStabilize = "STABILIZE"
	// EvNotify reports a notify exchange that established a predecessor.
	EvNotify = "NOTIFY"
	// EvSuccFail reports the loss of one live successor-list entry.
	EvSuccFail = "SUCC_FAIL"
	// EvPredFail reports the loss of the predecessor.
	EvPredFail = "PRED_FAIL"
	// EvLeave departs the overlay gracefully.
	EvLeave = "LEAVE"
)

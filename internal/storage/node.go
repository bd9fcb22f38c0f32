package storage

import (
	"asagen/internal/simnet"
)

// Message types exchanged between the storage endpoint and storage nodes.
const (
	MsgStore      = "storage.store"
	MsgStoreAck   = "storage.store_ack"
	MsgFetch      = "storage.fetch"
	MsgFetchReply = "storage.fetch_reply"
)

// StoreRequest asks a node to store a replica of a block.
type StoreRequest struct {
	// ReqID correlates acknowledgements with the originating operation.
	ReqID uint64
	// PID names the block.
	PID PID
	// Data is the block content.
	Data []byte
}

// StoreAck acknowledges a successful store.
type StoreAck struct {
	// ReqID echoes the request.
	ReqID uint64
	// PID echoes the block name.
	PID PID
}

// FetchRequest asks a node for a replica.
type FetchRequest struct {
	// ReqID correlates the reply with the originating operation.
	ReqID uint64
	// PID names the block.
	PID PID
}

// FetchReply returns a replica (or nothing, when the node lacks the block).
type FetchReply struct {
	// ReqID echoes the request.
	ReqID uint64
	// PID echoes the block name.
	PID PID
	// Found reports whether the node held the block.
	Found bool
	// Data is the block content when found.
	Data []byte
}

// Behaviour selects how a storage node (mis)behaves — the Byzantine fault
// models the quorum scheme must tolerate.
type Behaviour int

// Storage node behaviours.
const (
	// Honest nodes store and serve blocks faithfully.
	Honest Behaviour = iota + 1
	// Silent nodes never reply (fail-stop from the client's viewpoint).
	Silent
	// Lying nodes acknowledge stores but discard the data.
	Lying
	// Corrupting nodes store data but serve corrupted bytes.
	Corrupting
)

// String names the behaviour.
func (b Behaviour) String() string {
	switch b {
	case Honest:
		return "honest"
	case Silent:
		return "silent"
	case Lying:
		return "lying"
	case Corrupting:
		return "corrupting"
	default:
		return "unknown"
	}
}

// Node is one storage server, attached to a simulated-network identity. It
// holds the replicas whose keys it owns in the routing layer.
type Node struct {
	id        simnet.NodeID
	behaviour Behaviour
	blocks    map[PID][]byte
}

var _ simnet.Handler = (*Node)(nil)

// NewNode returns a storage node with the given behaviour.
func NewNode(id simnet.NodeID, behaviour Behaviour) *Node {
	return &Node{
		id:        id,
		behaviour: behaviour,
		blocks:    make(map[PID][]byte),
	}
}

// ID returns the node's network identity.
func (n *Node) ID() simnet.NodeID { return n.id }

// Behaviour returns the node's fault model.
func (n *Node) Behaviour() Behaviour { return n.behaviour }

// Holds reports whether the node has a replica of pid.
func (n *Node) Holds(pid PID) bool {
	_, ok := n.blocks[pid]
	return ok
}

// HandleMessage implements simnet.Handler.
func (n *Node) HandleMessage(net *simnet.Network, msg simnet.Message) {
	if n.behaviour == Silent {
		return
	}
	switch msg.Type {
	case MsgStore:
		req, ok := msg.Payload.(StoreRequest)
		if !ok {
			return
		}
		if n.behaviour != Lying {
			data := make([]byte, len(req.Data))
			copy(data, req.Data)
			n.blocks[req.PID] = data
		}
		net.Send(simnet.Message{
			From: n.id, To: msg.From, Type: MsgStoreAck,
			Payload: StoreAck{ReqID: req.ReqID, PID: req.PID},
		})
	case MsgFetch:
		req, ok := msg.Payload.(FetchRequest)
		if !ok {
			return
		}
		data, found := n.blocks[req.PID]
		reply := FetchReply{ReqID: req.ReqID, PID: req.PID, Found: found}
		if found {
			out := make([]byte, len(data))
			copy(out, data)
			if n.behaviour == Corrupting && len(out) > 0 {
				out[0] ^= 0xFF
			}
			reply.Data = out
		}
		net.Send(simnet.Message{
			From: n.id, To: msg.From, Type: MsgFetchReply, Payload: reply,
		})
	}
}

package cluster

import "fmt"

// RingEntry is one ring position in a status report.
type RingEntry struct {
	ID string `json:"id"`
	// Position is the member's hex location on the 2^64 circle.
	Position string `json:"position"`
}

// OracleReport summarises the routing oracle for a status report.
type OracleReport struct {
	State          string   `json:"state"`
	Deliveries     int      `json:"deliveries"`
	ViolationCount int      `json:"violation_count"`
	Violations     []string `json:"violations,omitempty"`
}

// Report is the /v1/cluster status document.
type Report struct {
	Enabled  bool         `json:"enabled"`
	ID       string       `json:"id"`
	URL      string       `json:"url"`
	Replicas int          `json:"replicas"`
	Members  []Member     `json:"members"`
	Ring     []RingEntry  `json:"ring"`
	Oracle   OracleReport `json:"oracle"`
	Stats    Stats        `json:"stats"`
	Events   int          `json:"events"`
	Recent   []string     `json:"recent_events,omitempty"`
}

// Status snapshots the node for the /v1/cluster route.
func (n *Node) Status() Report {
	n.mu.Lock()
	defer n.mu.Unlock()
	rep := Report{
		Enabled:  true,
		ID:       n.cfg.ID,
		URL:      n.cfg.URL,
		Replicas: n.cfg.Replicas,
		Stats:    n.stats,
		Events:   n.cfg.Log.Total(),
		Recent:   n.cfg.Log.Recent(16),
	}
	for _, id := range sortedMemberIDs(n.members) {
		rep.Members = append(rep.Members, n.members[id].Member)
	}
	for i := 0; i < n.ring.size(); i++ {
		id, _ := n.ring.at(i)
		rep.Ring = append(rep.Ring, RingEntry{ID: id, Position: fmt.Sprintf("%016x", n.ring.hashes[i])})
	}
	rep.Oracle = OracleReport{
		State:          n.oracle.StateName(),
		Deliveries:     n.oracle.Deliveries(),
		ViolationCount: n.oracle.violations,
		Violations:     append([]string(nil), n.oracle.Violations()...),
	}
	return rep
}

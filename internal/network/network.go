// Package network simulates the wide-area links of the paper's distributed
// experiments. The paper runs its distributed setting over 10 Mbps (cost
// model assumption, §V) and 100 Mbps Ethernet (§VI-C); this package models
// a link as latency + bandwidth and charges real wall-clock time for
// transfers, so running-time figures reflect shipping costs exactly the way
// the paper's testbed did.
//
// A Topology names a set of sites (site 0 is the master query node) and the
// links between them; filters shipped by the distributed AIP Manager and
// tuples shipped by exec.Ship both pay the link's transfer cost and are
// accounted in stats.Registry.NetworkBytes.
package network

import (
	"fmt"
	"sync"
	"time"
)

// Link models one directed connection.
type Link struct {
	// BytesPerSec is the modeled bandwidth; zero means infinite.
	BytesPerSec int64
	// Latency is the fixed per-message delay.
	Latency time.Duration
	// Faults, when non-nil, injects per-message failures (drop, stall,
	// transient error, mid-message cut) drawn deterministically from the
	// profile's seed. A nil profile is a reliable link.
	Faults *FaultProfile

	mu           sync.Mutex
	sentBytes    int64
	sentMsgs     int64
	abortedBytes int64
	abortedMsgs  int64
	busyUntil    time.Time
	inj          *FaultInjector
}

// TransferTime returns the modeled time for a message of n bytes.
func (l *Link) TransferTime(n int) time.Duration {
	d := l.Latency
	if l.BytesPerSec > 0 {
		d += time.Duration(float64(n) / float64(l.BytesPerSec) * float64(time.Second))
	}
	return d
}

// Transfer blocks for the modeled transfer time of an n-byte message and
// records the traffic. Concurrent transfers share the link: they serialize
// on the modeled bandwidth, as a real link would.
//
// Bandwidth is reserved while the message is in flight and committed to the
// sent counters only on success; a cancelled or faulted transfer rolls its
// reservation back when possible and is accounted under AbortedBytes, so a
// failed attempt never inflates the sent-byte figures.
//
// It returns nil on success, ErrCancelled when cancel fired first, or a
// *FaultError when the link's fault profile failed the message.
func (l *Link) Transfer(n int, cancel <-chan struct{}) error {
	l.mu.Lock()
	fault := FaultNone
	if l.Faults.Active() {
		if l.inj == nil {
			l.inj = l.Faults.Injector("link")
		}
		fault = l.inj.Next()
	}
	switch fault {
	case FaultTransient:
		// Fails before any bytes move: no bandwidth, no reservation.
		l.abortedMsgs++
		l.mu.Unlock()
		return &FaultError{Kind: FaultTransient}
	case FaultStall:
		// Hangs without consuming modeled bandwidth — the wire is idle, the
		// far end just never answers.
		l.abortedMsgs++
		l.mu.Unlock()
		if cancel == nil {
			// Nothing can end the stall; treat as an immediate timeout
			// rather than wedging the caller forever.
			return &FaultError{Kind: FaultStall}
		}
		<-cancel
		return ErrCancelled
	case FaultCut:
		n = l.inj.cutBytes(n)
	}

	// Reserve the link: the message occupies [start, end) of modeled
	// bandwidth. Counters are not advanced yet (reserve now, commit on
	// success).
	now := time.Now()
	start := now
	if l.busyUntil.After(now) {
		start = l.busyUntil
	}
	end := start.Add(l.TransferTime(n))
	l.busyUntil = end
	l.mu.Unlock()

	wait := time.Until(end)
	completed := true
	if wait > 0 {
		select {
		case <-time.After(wait):
		case <-cancel:
			completed = false
		}
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if !completed {
		// Roll the reservation back when no later transfer queued behind
		// it; otherwise the slot is already promised and stays consumed,
		// like frames already handed to the NIC.
		if l.busyUntil.Equal(end) {
			l.busyUntil = start
		}
		l.abortedBytes += int64(n)
		l.abortedMsgs++
		return ErrCancelled
	}
	switch fault {
	case FaultDrop:
		// The message crossed (and consumed) the wire but was lost.
		l.abortedBytes += int64(n)
		l.abortedMsgs++
		return &FaultError{Kind: FaultDrop, Sent: n}
	case FaultCut:
		l.abortedBytes += int64(n)
		l.abortedMsgs++
		return &FaultError{Kind: FaultCut, Sent: n}
	}
	l.sentBytes += int64(n)
	l.sentMsgs++
	return nil
}

// SentBytes returns the total bytes successfully transferred over the link.
func (l *Link) SentBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sentBytes
}

// SentMessages returns the number of messages successfully transferred.
func (l *Link) SentMessages() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sentMsgs
}

// AbortedBytes returns the modeled bytes consumed by cancelled, dropped, or
// cut transfers — bandwidth wasted on work that never completed.
func (l *Link) AbortedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.abortedBytes
}

// AbortedMessages returns the number of failed or cancelled transfers.
func (l *Link) AbortedMessages() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.abortedMsgs
}

// Topology is the set of sites and pairwise links of one experiment.
type Topology struct {
	mu    sync.Mutex
	links map[[2]int]*Link
	// Default is used for site pairs without an explicit link.
	Default *Link
}

// NewTopology creates a topology with the given default link parameters.
func NewTopology(def *Link) *Topology {
	return &Topology{links: make(map[[2]int]*Link), Default: def}
}

// SetLink installs a dedicated link between two sites (symmetric).
func (t *Topology) SetLink(a, b int, l *Link) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.links[[2]int{a, b}] = l
	t.links[[2]int{b, a}] = l
}

// LinkBetween returns the link connecting two sites; same-site traffic is
// free (returns nil).
func (t *Topology) LinkBetween(a, b int) *Link {
	if a == b {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, ok := t.links[[2]int{a, b}]; ok {
		return l
	}
	if t.Default != nil {
		return t.Default
	}
	return nil
}

// String describes the topology.
func (t *Topology) String() string {
	if t == nil {
		return "local"
	}
	if t.Default != nil {
		return fmt.Sprintf("topology(default %d B/s, %v latency)", t.Default.BytesPerSec, t.Default.Latency)
	}
	return "topology(custom links)"
}

// Mbps converts megabits/second to bytes/second for link construction.
func Mbps(m float64) int64 { return int64(m * 1e6 / 8) }

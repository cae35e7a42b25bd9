package network

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// FaultKind classifies one injected failure.
type FaultKind int

// Injected fault classes. The symptom the *sender* observes is what matters
// for recovery policy, so the classes are named for how a failure manifests,
// not for its root cause.
const (
	// FaultNone: the interaction proceeds normally.
	FaultNone FaultKind = iota
	// FaultTransient: the interaction fails immediately (connection
	// refused, HTTP 503) without consuming modeled bandwidth.
	FaultTransient
	// FaultDrop: the message is lost in flight. The sender pays the full
	// modeled transfer time before discovering the loss — the way a lost
	// message surfaces as an acknowledgement timeout.
	FaultDrop
	// FaultStall: the interaction hangs until cancelled (a wedged source
	// that neither answers nor closes). Only a per-attempt timeout or query
	// cancellation ends a stalled attempt.
	FaultStall
	// FaultCut: the connection breaks mid-message after FailAfterBytes
	// bytes; the partial transfer consumes proportional bandwidth.
	FaultCut
)

var faultNames = map[FaultKind]string{
	FaultNone: "none", FaultTransient: "transient", FaultDrop: "drop",
	FaultStall: "stall", FaultCut: "cut",
}

// String names the fault class.
func (k FaultKind) String() string {
	if n, ok := faultNames[k]; ok {
		return n
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// FaultProfile parameterizes deterministic fault injection for one link or
// source stream. Rates are independent per-attempt probabilities evaluated
// in the order transient, drop, stall, cut; the first match wins. The zero
// profile injects nothing.
//
// Chaos runs are reproducible: every injector derived from a profile draws
// its decisions from a PRNG seeded with Seed mixed with the stream's name,
// so the same (profile, plan, seed) triple injects the same fault sequence.
type FaultProfile struct {
	// Seed makes the injected fault sequence deterministic. Two injectors
	// with the same Seed and stream name inject identical sequences.
	Seed int64

	// TransientRate is the probability of an immediate transient error.
	TransientRate float64
	// DropRate is the probability a message is lost in flight (full
	// transfer time consumed before the failure surfaces).
	DropRate float64
	// StallRate is the probability an interaction hangs until cancelled.
	StallRate float64
	// CutRate is the probability a message is cut after FailAfterBytes.
	CutRate float64
	// FailAfterBytes bounds how much of a cut message crosses the link
	// before the failure; zero cuts messages at half their size.
	FailAfterBytes int64
}

// Active reports whether the profile injects any faults at all.
func (p *FaultProfile) Active() bool {
	return p != nil && (p.TransientRate > 0 || p.DropRate > 0 || p.StallRate > 0 || p.CutRate > 0)
}

// Injector creates a deterministic fault source for one named stream.
func (p *FaultProfile) Injector(stream string) *FaultInjector {
	seed := p.Seed
	for _, c := range []byte(stream) {
		seed = seed*131 + int64(c)
	}
	return &FaultInjector{p: *p, rng: rand.New(rand.NewSource(seed))}
}

// FaultInjector draws per-attempt fault decisions from a seeded PRNG. It is
// safe for concurrent use (decisions serialize on an internal lock), though
// determinism across runs additionally requires that the draw *order* is
// deterministic — one injector per single-goroutine stream achieves that.
type FaultInjector struct {
	mu       sync.Mutex
	p        FaultProfile
	rng      *rand.Rand
	injected int64
}

// Next draws the fault decision for one attempt.
func (fi *FaultInjector) Next() FaultKind {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	r := fi.rng.Float64()
	for _, c := range [...]struct {
		rate float64
		kind FaultKind
	}{
		{fi.p.TransientRate, FaultTransient},
		{fi.p.DropRate, FaultDrop},
		{fi.p.StallRate, FaultStall},
		{fi.p.CutRate, FaultCut},
	} {
		if r < c.rate {
			fi.injected++
			return c.kind
		}
		r -= c.rate
	}
	return FaultNone
}

// Injected returns how many faults this injector has produced.
func (fi *FaultInjector) Injected() int64 {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.injected
}

// cutBytes returns how many bytes of an n-byte message cross the link
// before a cut fault breaks it.
func (fi *FaultInjector) cutBytes(n int) int {
	if fi.p.FailAfterBytes > 0 && int64(n) > fi.p.FailAfterBytes {
		return int(fi.p.FailAfterBytes)
	}
	return n / 2
}

// FaultError is the typed failure of one injected fault. It is transient by
// construction — every injected fault models a condition a retry might
// outlast — so recovery layers treat any FaultError as retryable.
type FaultError struct {
	Kind FaultKind
	// Sent is how many bytes of the message consumed modeled bandwidth
	// before the failure (wasted work the retry layer accounts for).
	Sent int
}

// Error renders the fault.
func (e *FaultError) Error() string {
	if e.Sent > 0 {
		return fmt.Sprintf("network: injected %s fault after %d bytes", e.Kind, e.Sent)
	}
	return fmt.Sprintf("network: injected %s fault", e.Kind)
}

// ErrCancelled reports a transfer aborted by its cancel channel. It is not
// retryable: the caller is shutting down.
var ErrCancelled = errors.New("network: transfer cancelled")

// ErrBreakerOpen reports an attempt rejected by an open circuit breaker
// without touching the link. It is retryable — the breaker may close.
var ErrBreakerOpen = errors.New("network: circuit breaker open")

package network

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestTransferTime(t *testing.T) {
	l := &Link{BytesPerSec: 1000, Latency: 10 * time.Millisecond}
	if got := l.TransferTime(1000); got != 10*time.Millisecond+time.Second {
		t.Fatalf("TransferTime = %v", got)
	}
	// Infinite bandwidth: latency only.
	fast := &Link{Latency: 5 * time.Millisecond}
	if got := fast.TransferTime(1 << 30); got != 5*time.Millisecond {
		t.Fatalf("latency-only TransferTime = %v", got)
	}
}

func TestTransferBlocksAndAccounts(t *testing.T) {
	l := &Link{BytesPerSec: 1 << 20, Latency: 20 * time.Millisecond}
	start := time.Now()
	if err := l.Transfer(1024, nil); err != nil {
		t.Fatalf("transfer failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("transfer returned too fast: %v", elapsed)
	}
	if l.SentBytes() != 1024 || l.SentMessages() != 1 {
		t.Fatalf("accounting: %d bytes, %d msgs", l.SentBytes(), l.SentMessages())
	}
}

func TestTransferCancellation(t *testing.T) {
	l := &Link{BytesPerSec: 10, Latency: 0} // 10 B/s: 100 bytes = 10 s
	cancel := make(chan struct{})
	done := make(chan error)
	go func() { done <- l.Transfer(100, cancel) }()
	time.Sleep(10 * time.Millisecond)
	close(cancel)
	select {
	case err := <-done:
		if err != ErrCancelled {
			t.Fatalf("cancelled transfer returned %v, want ErrCancelled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled transfer did not return")
	}
}

// TestTransferCancelRollsBackReservation pins the reserve-on-success
// contract: a cancelled transfer must not advance busyUntil for later
// transfers, must not count toward SentBytes/SentMessages, and must be
// accounted under AbortedBytes instead.
func TestTransferCancelRollsBackReservation(t *testing.T) {
	l := &Link{BytesPerSec: 100, Latency: 0} // 1000 bytes = 10 s
	cancel := make(chan struct{})
	done := make(chan error)
	go func() { done <- l.Transfer(1000, cancel) }()
	time.Sleep(20 * time.Millisecond)
	close(cancel)
	if err := <-done; err != ErrCancelled {
		t.Fatalf("cancelled transfer returned %v", err)
	}
	if l.SentBytes() != 0 || l.SentMessages() != 0 {
		t.Fatalf("cancelled transfer counted as sent: %d bytes, %d msgs", l.SentBytes(), l.SentMessages())
	}
	if l.AbortedBytes() != 1000 || l.AbortedMessages() != 1 {
		t.Fatalf("aborted accounting: %d bytes, %d msgs", l.AbortedBytes(), l.AbortedMessages())
	}
	// The reservation must have been rolled back: a fast follow-up transfer
	// does not wait out the cancelled message's ten-second slot.
	fast := &Link{BytesPerSec: 1 << 30}
	_ = fast
	start := time.Now()
	if err := l.Transfer(1, nil); err != nil { // 10 ms at 100 B/s
		t.Fatalf("follow-up transfer failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled reservation not rolled back: follow-up took %v", elapsed)
	}
	if l.SentBytes() != 1 {
		t.Fatalf("follow-up not accounted: %d bytes", l.SentBytes())
	}
}

// TestCutFaultChargesPartialBytes: a cut message consumes bandwidth for the
// bytes that crossed before the break, accounted as aborted.
func TestCutFaultChargesPartialBytes(t *testing.T) {
	l := &Link{
		BytesPerSec: 1 << 30,
		Faults:      &FaultProfile{Seed: 1, CutRate: 1, FailAfterBytes: 64},
	}
	err := l.Transfer(1000, nil)
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Kind != FaultCut || fe.Sent != 64 {
		t.Fatalf("cut transfer returned %v", err)
	}
	if l.SentBytes() != 0 || l.AbortedBytes() != 64 {
		t.Fatalf("cut accounting: sent %d, aborted %d", l.SentBytes(), l.AbortedBytes())
	}
}

// TestFaultInjectionDeterministic: the same seed yields the same fault
// sequence; a different seed diverges (with overwhelming probability over
// 64 draws).
func TestFaultInjectionDeterministic(t *testing.T) {
	p := &FaultProfile{Seed: 42, TransientRate: 0.3, DropRate: 0.2, StallRate: 0.1}
	draw := func(seed int64) []FaultKind {
		q := *p
		q.Seed = seed
		inj := q.Injector("stream")
		out := make([]FaultKind, 64)
		for i := range out {
			out[i] = inj.Next()
		}
		return out
	}
	a, b, c := draw(42), draw(42), draw(7)
	same := func(x, y []FaultKind) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("same seed produced different fault sequences")
	}
	if same(a, c) {
		t.Fatal("different seeds produced identical fault sequences")
	}
	if inj := p.Injector("s"); inj.Injected() != 0 {
		t.Fatal("fresh injector reports injected faults")
	}
}

// TestBreakerLifecycle walks closed → open → half-open → closed and
// half-open → open, checking Allow gating and transition counting.
func TestBreakerLifecycle(t *testing.T) {
	pol := RetryPolicy{BreakerFailures: 2, BreakerCooldown: 10 * time.Millisecond}.WithDefaults()
	var seen []string
	b := NewBreaker(pol, func(from, to BreakerState) {
		seen = append(seen, from.String()+">"+to.String())
	})
	now := time.Now()
	if !b.Allow(now) || b.State() != BreakerClosed {
		t.Fatal("fresh breaker must be closed and allowing")
	}
	b.Failure(now)
	if b.State() != BreakerClosed {
		t.Fatal("one failure must not open the breaker")
	}
	b.Failure(now)
	if b.State() != BreakerOpen {
		t.Fatal("threshold failures must open the breaker")
	}
	if b.Allow(now.Add(time.Millisecond)) {
		t.Fatal("open breaker allowed an attempt before cooldown")
	}
	trial := now.Add(pol.BreakerCooldown)
	if !b.Allow(trial) || b.State() != BreakerHalfOpen {
		t.Fatal("cooldown must admit a half-open trial")
	}
	if b.Allow(trial) {
		t.Fatal("half-open breaker admitted a second concurrent trial")
	}
	b.Failure(trial)
	if b.State() != BreakerOpen {
		t.Fatal("failed half-open trial must re-open")
	}
	if !b.Allow(trial.Add(pol.BreakerCooldown)) {
		t.Fatal("second cooldown must admit another trial")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatal("successful trial must close the breaker")
	}
	if b.Transitions() != 5 || len(seen) != 5 {
		t.Fatalf("transitions = %d, callbacks = %v", b.Transitions(), seen)
	}
}

// TestBreakerSetPerSite: breakers are independent per site and the set's
// transition callback carries the site.
func TestBreakerSetPerSite(t *testing.T) {
	s := NewBreakerSet(RetryPolicy{BreakerFailures: 1}.WithDefaults())
	var sites []int
	s.OnTransition = func(site int, from, to BreakerState) { sites = append(sites, site) }
	now := time.Now()
	s.For(1).Failure(now)
	if s.For(1).State() != BreakerOpen || s.For(2).State() != BreakerClosed {
		t.Fatalf("breaker states not per-site: %v", s.States())
	}
	if len(sites) != 1 || sites[0] != 1 {
		t.Fatalf("transition callback sites = %v", sites)
	}
	if s.For(1) != s.For(1) {
		t.Fatal("For must return a stable breaker per site")
	}
}

// TestBackoffCappedExponential: backoff doubles from BaseBackoff and caps
// at MaxBackoff; jitter stays within ±Jitter.
func TestBackoffCappedExponential(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond, Jitter: -1}.WithDefaults()
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := p.Backoff(i, nil); got != w*time.Millisecond {
			t.Fatalf("Backoff(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	j := RetryPolicy{BaseBackoff: 100 * time.Millisecond, Jitter: 0.5}.WithDefaults()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		d := j.Backoff(0, rng)
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered backoff %v outside ±50%%", d)
		}
	}
}

// TestLinkSerializesConcurrentTransfers: two concurrent transfers share the
// modeled bandwidth, so together they take about twice one transfer's time.
func TestLinkSerializesConcurrentTransfers(t *testing.T) {
	l := &Link{BytesPerSec: 1 << 20} // 1 MiB/s; 64 KiB ≈ 62 ms
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Transfer(64<<10, nil)
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("concurrent transfers did not serialize: %v", elapsed)
	}
}

func TestTopology(t *testing.T) {
	def := &Link{BytesPerSec: Mbps(10)}
	topo := NewTopology(def)
	if topo.LinkBetween(0, 0) != nil {
		t.Fatal("same-site traffic must be free")
	}
	if topo.LinkBetween(0, 1) != def {
		t.Fatal("default link not used")
	}
	fast := &Link{BytesPerSec: Mbps(100)}
	topo.SetLink(0, 2, fast)
	if topo.LinkBetween(0, 2) != fast || topo.LinkBetween(2, 0) != fast {
		t.Fatal("dedicated link must be symmetric")
	}
	if topo.LinkBetween(0, 1) != def {
		t.Fatal("dedicated link leaked to other pairs")
	}
	if topo.String() == "" || (*Topology)(nil).String() != "local" {
		t.Fatal("String rendering broken")
	}
	bare := NewTopology(nil)
	if bare.LinkBetween(0, 5) != nil {
		t.Fatal("no-default topology should return nil link")
	}
}

func TestMbps(t *testing.T) {
	if Mbps(8) != 1e6 {
		t.Fatalf("Mbps(8) = %d, want 1e6 bytes/s", Mbps(8))
	}
	if Mbps(100) != 12500000 {
		t.Fatalf("Mbps(100) = %d", Mbps(100))
	}
}

package sip

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/network"
	"repro/internal/stats"
)

// remotePartsuppQuery is the decorrelation query of examples/distributed:
// partsupp, read twice, lives at site 1.
const remotePartsuppQuery = `
	SELECT s_name, s_acctbal, s_address, s_phone, s_comment
	FROM part, supplier, partsupp
	WHERE s_nation = 'FRANCE' AND p_size = 15 AND p_type LIKE '%BRASS'
	  AND p_partkey = ps_partkey AND s_suppkey = ps_suppkey
	  AND ps_supplycost = (SELECT min(ps_supplycost) FROM partsupp, supplier
	       WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey
	         AND s_nation = 'FRANCE')`

// TestFeedForwardShipsRemoteFilters: a Feed-forward filter attached to a
// consumer at another site than its producer crosses the link first, as
// Cost-based's does. The shipments are counted in FilterNetWork (and
// NetworkBytes), byte for byte what the ShipFilter hook was handed; a hook
// that fails leaves every remote bank empty, and the rows stay Baseline's.
func TestFeedForwardShipsRemoteFilters(t *testing.T) {
	e := testEngine(t)
	opts := Options{
		Strategy:     FeedForward,
		RemoteTables: map[string]int{"partsupp": 1},
		Topology:     NewTopology(&Link{BytesPerSec: Mbps(100), Latency: time.Millisecond}),
	}
	base := opts
	base.Strategy = Baseline
	want, err := e.Query(context.Background(), remotePartsuppQuery, base)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(context.Background(), remotePartsuppQuery, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FilterNetWork.Load() == 0 {
		t.Fatalf("Feed-forward shipped no filter to the remote site\n%s", res.Stats.Report())
	}

	// run executes the plan as the engine does, under a Feed-forward
	// controller whose filter shipments go through ship.
	run := func(ship func(link *network.Link, site, nbytes int) error) ([]Row, *stats.Registry, []*exec.Point) {
		t.Helper()
		p, args, err := e.adhocPlan(remotePartsuppQuery, opts)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := p.built.Instantiate(args)
		if err != nil {
			t.Fatal(err)
		}
		reg := stats.NewRegistry()
		ctx := exec.NewContext(reg, core.NewFeedForward(core.Options{Stats: reg, Topology: p.topo, ShipFilter: ship}))
		defer ctx.Cleanup()
		for _, pt := range inst.Points {
			ctx.Register(pt)
		}
		rows, err := exec.Run(ctx, inst.Root)
		if err != nil {
			t.Fatal(err)
		}
		return rows, reg, inst.Points
	}

	var shipped, calls atomic.Int64
	rows, reg, _ := run(func(link *network.Link, _, nbytes int) error {
		shipped.Add(int64(nbytes))
		calls.Add(1)
		return link.Transfer(nbytes, nil)
	})
	if !slices.Equal(canon(rows), canon(want.Rows)) {
		t.Fatalf("rows differ from Baseline's: %d vs %d", len(rows), len(want.Rows))
	}
	if n := reg.FilterNetWork.Load(); calls.Load() == 0 || n != shipped.Load() {
		t.Fatalf("FilterNetWork %d B over %d shipments; the hook was handed %d B", n, calls.Load(), shipped.Load())
	}

	rows, reg, points := run(func(*network.Link, int, int) error { return errors.New("site 1 unreachable") })
	if !slices.Equal(canon(rows), canon(want.Rows)) {
		t.Fatalf("with failed shipments, rows differ from Baseline's: %d vs %d", len(rows), len(want.Rows))
	}
	remote := 0
	for _, pt := range points {
		if pt.Site == 0 {
			continue
		}
		remote++
		if n := pt.Bank.Len(); n != 0 {
			t.Fatalf("%s at site %d holds %d filters whose shipment failed", pt.Name, pt.Site, n)
		}
	}
	if remote == 0 || reg.FilterNetWork.Load() != 0 {
		t.Fatalf("%d remote points; FilterNetWork %d B after failed shipments", remote, reg.FilterNetWork.Load())
	}
}

// Streaming fraud monitoring: dynamic cover maintenance over real-world
// account IDs.
//
// The paper's fraud-detection motivation is inherently dynamic — new
// transfers arrive continuously (its reference [14] detects constrained
// cycles on dynamic e-commerce graphs in real time). This example seeds a
// cover on a historical snapshot, then processes a live stream of
// transfers addressed by account ID strings: each insertion either lands
// on an already-audited account or triggers one bounded cycle search,
// keeping the audit set valid at every instant without ever recomputing
// from scratch. Accounts first seen mid-stream are interned on the fly.
// After a burst of account closures (edge deletions), one Reminimize pass
// sheds the audit entries the closures made redundant.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"
	"time"

	"tdb"
)

func main() {
	const (
		accounts = 30_000
		history  = 150_000 // transfers in the historical snapshot
		stream   = 50_000  // live transfers
		maxHops  = 5
	)
	acct := func(i int) string { return fmt.Sprintf("acct-%05d", i) }

	// Relabel the generated snapshot with account IDs — exactly what an
	// ingest from a production transfer log looks like.
	fmt.Printf("snapshot: %d accounts, %d historical transfers\n", accounts, history)
	raw := tdb.GenPowerLaw(accounts, history, 2.4, 0.3, 71)
	lb := tdb.NewLabeledBuilder[string]()
	for i := 0; i < accounts; i++ {
		lb.Intern(acct(i))
	}
	for _, e := range raw.Edges() {
		lb.AddEdge(acct(int(e.U)), acct(int(e.V)))
	}
	g := lb.Build()

	res, err := g.Solve(context.Background(), maxHops, tdb.WithOrder(tdb.OrderDegreeAsc))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial audit set: %d accounts [strategy: %s]\n",
		len(res.Cover), res.Stats.Strategy)

	m, err := g.Maintainer(maxHops, 3, res.Cover)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(72, 72))
	start := time.Now()
	grew := 0
	for i := 0; i < stream/2; i++ {
		// A slice of the stream involves brand-new accounts (IDs beyond the
		// snapshot), interned by the maintainer on first sight.
		u := acct(rng.IntN(accounts + accounts/10))
		v := acct(rng.IntN(accounts + accounts/10))
		if _, added := m.InsertEdge(u, v); added {
			grew++
		}
	}
	// The second half arrives the way a production ingest does: in bursts.
	// ApplyBatch applies each burst's edges first and then runs the
	// deferred cycle checks in order.
	const burst = 512
	batch := make([]tdb.LabeledUpdate[string], 0, burst)
	for i := stream / 2; i < stream; i += burst {
		batch = batch[:0]
		for j := 0; j < burst && i+j < stream; j++ {
			batch = append(batch, tdb.LabeledUpdate[string]{
				Op: tdb.UpdateInsert,
				U:  acct(rng.IntN(accounts + accounts/10)),
				V:  acct(rng.IntN(accounts + accounts/10)),
			})
		}
		grew += len(m.ApplyBatch(batch))
	}
	elapsed := time.Since(start)
	_, _, checks, _ := m.Stats()
	fmt.Printf("streamed %d transfers in %v (%.1f µs/transfer, %d cycle checks, %d audit additions, %d accounts known)\n",
		stream, elapsed.Round(time.Millisecond),
		float64(elapsed.Microseconds())/float64(stream), checks, grew, m.NumVertices())

	if rep := m.Verify(false); !rep.Valid {
		log.Fatal("BUG: invariant broken")
	} else {
		fmt.Printf("audit set still intersects every ring of length 3..%d: %v\n", maxHops, rep.Valid)
	}

	// A compliance sweep closes suspicious accounts: drop 20% of the
	// audited accounts' outgoing transfers, then shed redundant entries.
	// One snapshot serves the whole sweep — deletions only remove edges,
	// so stale entries are at worst no-op deletes.
	snap := m.Snapshot()
	closed := 0
	for _, name := range m.Cover() {
		if rng.IntN(5) == 0 {
			v, _ := snap.Lookup(name)
			for _, w := range snap.Graph().Out(v) {
				if m.DeleteEdge(name, snap.Label(w)) {
					closed++
				}
			}
		}
	}
	before := m.CoverSize()
	shed := m.Reminimize()
	fmt.Printf("after closing %d transfer channels: audit set %d -> %d (shed %d)\n",
		closed, before, m.CoverSize(), shed)
	rep := m.Verify(true)
	fmt.Printf("final audit set valid=%v minimal=%v\n", rep.Valid, rep.Minimal)
}

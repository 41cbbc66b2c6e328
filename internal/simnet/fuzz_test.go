package simnet

import (
	"testing"

	"commoverlap/internal/sim"
)

// FuzzChunking drives the four-stage chunked transfer pipeline with
// arbitrary message sizes, segmentation sizes and placements — two
// concurrent transfers so chunks interleave on shared stages — and asserts
// the accounting invariants that every schedule must preserve:
//
//   - the job completes (no deadlock among the transfer half-processes);
//   - both gates of each transfer fire, delivery no earlier than injection;
//   - the egress wire carries exactly the payload bytes of the inter-node
//     transfers — chunking neither drops, duplicates nor invents bytes;
//   - every resource reservation respects FIFO non-overlap.
func FuzzChunking(f *testing.F) {
	f.Add(int64(0), int64(1), int64(256<<10), false, true)
	f.Add(int64(1), int64(64<<10), int64(1), true, true)
	f.Add(int64(300_000), int64(300_000), int64(256<<10), false, false)
	f.Add(int64(1<<20), int64(777), int64(4096), true, false)
	f.Add(int64(255), int64(1<<21), int64(64<<10), false, true)

	f.Fuzz(func(t *testing.T, sizeA, sizeB, chunk int64, intraA, bulkB bool) {
		const maxSize = 4 << 20
		if sizeA < 0 || sizeA > maxSize || sizeB < 0 || sizeB > maxSize {
			t.Skip("size out of modeled range")
		}
		if chunk <= 0 || chunk > maxSize {
			t.Skip("chunk out of modeled range")
		}
		eng := sim.NewEngine()
		cfg := DefaultConfig(2)
		cfg.ChunkBytes = chunk
		net, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// FIFO non-overlap audit on every fabric resource.
		net.EachResource(func(r *sim.Resource) {
			name := r.Name
			prevDone := 0.0
			r.Audit = func(ready, start, done float64) {
				if start < ready || done < start || start < prevDone {
					t.Errorf("%s: reservation (ready=%g start=%g done=%g) after prev done %g",
						name, ready, start, done, prevDone)
				}
				prevDone = done
			}
		})

		src := net.NewEndpoint(0)
		dstA := net.NewEndpoint(1)
		if intraA {
			dstA = net.NewEndpoint(0)
		}
		dstB := net.NewEndpoint(1)

		// Fire times of A's injection and delivery, then B's; -1 until fired.
		at := [4]float64{-1, -1, -1, -1}
		stamp := func(i any) { at[i.(int)] = eng.Now() }
		net.TransferFn(src, dstA, sizeA, stamp, 0, stamp, 1)
		if bulkB {
			net.TransferBulkFn(src, dstB, sizeB, stamp, 2, stamp, 3)
		} else {
			net.TransferFn(src, dstB, sizeB, stamp, 2, stamp, 3)
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("transfers deadlocked: %v", err)
		}

		for i, name := range []string{"A", "B"} {
			inj, del := at[2*i], at[2*i+1]
			if inj < 0 || del < 0 {
				t.Fatalf("transfer %s: injected at %g, delivered at %g, want both fired", name, inj, del)
			}
			if del < inj {
				t.Errorf("transfer %s delivered at %g before injection completed at %g", name, del, inj)
			}
		}

		wantWire := sizeB // B is always inter-node
		if !intraA {
			wantWire += sizeA
		}
		if got := net.nodes[0].egressBytes; got != wantWire {
			t.Errorf("egress wire carried %d bytes, want %d (chunking lost or invented data)", got, wantWire)
		}
		if got := net.TotalWireBytes(); got != wantWire {
			t.Errorf("TotalWireBytes() = %d, want %d", got, wantWire)
		}
	})
}

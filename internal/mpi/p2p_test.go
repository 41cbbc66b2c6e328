package mpi

import (
	"math/rand"
	"strings"
	"testing"

	"commoverlap/internal/sim"
	"commoverlap/internal/simnet"
)

// runJob launches a world of size ranks on nodes nodes (round-robin
// placement) and runs body on every rank.
func runJob(t *testing.T, size, nodes int, body func(p *Proc)) {
	t.Helper()
	eng := sim.NewEngine()
	net, err := simnet.New(eng, simnet.DefaultConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(net, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Launch(body)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWorldValidation(t *testing.T) {
	eng := sim.NewEngine()
	net, _ := simnet.New(eng, simnet.DefaultConfig(1))
	if _, err := NewWorld(net, 0, nil); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewWorld(net, 3, []int{0}); err == nil {
		t.Error("short placement accepted")
	}
}

func TestSendRecvSmall(t *testing.T) {
	runJob(t, 2, 2, func(p *Proc) {
		c := p.World()
		if p.Rank() == 0 {
			c.Send(1, 7, F64([]float64{1, 2, 3}))
		} else {
			buf := make([]float64, 3)
			st := c.Recv(0, 7, F64(buf))
			if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
				t.Errorf("payload %v", buf)
			}
			if st.Source != 0 || st.Tag != 7 || st.Bytes != 24 {
				t.Errorf("status %+v", st)
			}
		}
	})
}

func TestSendRecvRendezvous(t *testing.T) {
	n := 100000 // 800 KB > eager limit
	runJob(t, 2, 2, func(p *Proc) {
		c := p.World()
		if p.Rank() == 0 {
			data := make([]float64, n)
			for i := range data {
				data[i] = float64(i)
			}
			c.Send(1, 1, F64(data))
		} else {
			buf := make([]float64, n)
			c.Recv(0, 1, F64(buf))
			for i, v := range buf {
				if v != float64(i) {
					t.Fatalf("buf[%d]=%g", i, v)
				}
			}
		}
	})
}

func TestRecvBeforeSend(t *testing.T) {
	runJob(t, 2, 2, func(p *Proc) {
		c := p.World()
		if p.Rank() == 1 {
			buf := make([]float64, 1)
			c.Recv(0, 3, F64(buf))
			if buf[0] != 42 {
				t.Errorf("got %g", buf[0])
			}
		} else {
			p.Sleep(1e-3) // ensure the recv is posted first
			c.Send(1, 3, F64([]float64{42}))
		}
	})
}

func TestMessageOrderingSameTag(t *testing.T) {
	runJob(t, 2, 2, func(p *Proc) {
		c := p.World()
		const k = 10
		if p.Rank() == 0 {
			for i := 0; i < k; i++ {
				c.Send(1, 5, F64([]float64{float64(i)}))
			}
		} else {
			for i := 0; i < k; i++ {
				buf := make([]float64, 1)
				c.Recv(0, 5, F64(buf))
				if buf[0] != float64(i) {
					t.Fatalf("message %d out of order: got %g", i, buf[0])
				}
			}
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	runJob(t, 2, 2, func(p *Proc) {
		c := p.World()
		if p.Rank() == 0 {
			c.Send(1, 10, F64([]float64{10}))
			c.Send(1, 20, F64([]float64{20}))
		} else {
			buf := make([]float64, 1)
			c.Recv(0, 20, F64(buf)) // match second first
			if buf[0] != 20 {
				t.Errorf("tag 20 got %g", buf[0])
			}
			c.Recv(0, 10, F64(buf))
			if buf[0] != 10 {
				t.Errorf("tag 10 got %g", buf[0])
			}
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	runJob(t, 3, 3, func(p *Proc) {
		c := p.World()
		switch p.Rank() {
		case 0:
			c.Send(2, 9, F64([]float64{1}))
		case 1:
			p.Sleep(1e-3)
			c.Send(2, 8, F64([]float64{2}))
		case 2:
			buf := make([]float64, 1)
			st1 := c.Recv(AnySource, AnyTag, F64(buf))
			st2 := c.Recv(AnySource, AnyTag, F64(buf))
			if st1.Source == st2.Source {
				t.Errorf("same source twice: %d", st1.Source)
			}
		}
	})
}

func TestIsendIrecvOverlapProgress(t *testing.T) {
	runJob(t, 2, 2, func(p *Proc) {
		c := p.World()
		if p.Rank() == 0 {
			reqs := make([]*Request, 4)
			for i := range reqs {
				reqs[i] = c.Isend(1, i, F64([]float64{float64(i)}))
			}
			Waitall(reqs...)
		} else {
			reqs := make([]*Request, 4)
			bufs := make([][]float64, 4)
			for i := range reqs {
				bufs[i] = make([]float64, 1)
				reqs[i] = c.Irecv(0, i, F64(bufs[i]))
			}
			Waitall(reqs...)
			for i := range bufs {
				if bufs[i][0] != float64(i) {
					t.Errorf("buf[%d]=%g", i, bufs[i][0])
				}
			}
		}
	})
}

func TestSendBufferReusableAfterWait(t *testing.T) {
	// Eager sends are buffered: mutating the send buffer after Send returns
	// must not corrupt the delivery.
	runJob(t, 2, 2, func(p *Proc) {
		c := p.World()
		if p.Rank() == 0 {
			data := []float64{1}
			c.Send(1, 0, F64(data))
			data[0] = 999
		} else {
			buf := make([]float64, 1)
			p.Sleep(1e-3)
			c.Recv(0, 0, F64(buf))
			if buf[0] != 1 {
				t.Errorf("eager payload corrupted: %g", buf[0])
			}
		}
	})
}

func TestSelfSend(t *testing.T) {
	runJob(t, 1, 1, func(p *Proc) {
		c := p.World()
		rreq := c.Irecv(0, 1, F64(make([]float64, 2)))
		c.Send(0, 1, F64([]float64{5, 6}))
		rreq.Wait()
		if rreq.Status.Bytes != 16 {
			t.Errorf("status %+v", rreq.Status)
		}
	})
}

func TestPhantomSendRecv(t *testing.T) {
	runJob(t, 2, 2, func(p *Proc) {
		c := p.World()
		if p.Rank() == 0 {
			c.Send(1, 0, Phantom(5<<20))
		} else {
			st := c.Recv(0, 0, Phantom(5<<20))
			if st.Bytes != 5<<20 {
				t.Errorf("phantom bytes %d", st.Bytes)
			}
		}
	})
}

func TestSendrecvNoDeadlock(t *testing.T) {
	// Pairwise exchange of rendezvous-size messages: plain blocking sends
	// would deadlock; Sendrecv must not.
	n := 50000
	runJob(t, 2, 2, func(p *Proc) {
		c := p.World()
		other := 1 - p.Rank()
		out := make([]float64, n)
		in := make([]float64, n)
		out[0] = float64(p.Rank() + 1)
		c.Sendrecv(other, 0, F64(out), other, 0, F64(in))
		if in[0] != float64(other+1) {
			t.Errorf("rank %d got %g", p.Rank(), in[0])
		}
	})
}

func TestVirtualTimeAdvances(t *testing.T) {
	var t0, t1 float64
	runJob(t, 2, 2, func(p *Proc) {
		c := p.World()
		if p.Rank() == 0 {
			t0 = p.Now()
			c.Send(1, 0, F64(make([]float64, 1000)))
			t1 = p.Now()
		} else {
			c.Recv(0, 0, F64(make([]float64, 1000)))
		}
	})
	if t1 <= t0 {
		t.Errorf("send took no virtual time: %g -> %g", t0, t1)
	}
}

func TestLargerMessageTakesLonger(t *testing.T) {
	elapsed := func(n int) float64 {
		var dt float64
		runJob(t, 2, 2, func(p *Proc) {
			c := p.World()
			if p.Rank() == 0 {
				c.Send(1, 0, Phantom(int64(n)))
			} else {
				start := p.Now()
				c.Recv(0, 0, Phantom(int64(n)))
				dt = p.Now() - start
			}
		})
		return dt
	}
	small, big := elapsed(1<<10), elapsed(1<<22)
	if big <= small {
		t.Errorf("4 MiB (%g) not slower than 1 KiB (%g)", big, small)
	}
}

func TestManyRanksRandomExchange(t *testing.T) {
	const size = 16
	runJob(t, size, 4, func(p *Proc) {
		c := p.World()
		rng := rand.New(rand.NewSource(int64(p.Rank())))
		// Every rank sends one message to every other rank and receives one
		// from every other rank, in random issue order.
		order := rng.Perm(size)
		var reqs []*Request
		for _, d := range order {
			if d == p.Rank() {
				continue
			}
			reqs = append(reqs, c.Isend(d, 100+p.Rank(), F64([]float64{float64(p.Rank())})))
		}
		for s := 0; s < size; s++ {
			if s == p.Rank() {
				continue
			}
			buf := make([]float64, 1)
			c.Recv(s, 100+s, F64(buf))
			if buf[0] != float64(s) {
				t.Errorf("from %d got %g", s, buf[0])
			}
		}
		Waitall(reqs...)
	})
}

// TestRecvTruncationPanics covers the message-longer-than-buffer error
// path, for real and phantom payloads alike: a size-only run must catch a
// buffer-sizing bug the real run would. The message must already be queued
// as unexpected when the receive is posted, so the panic fires on the
// receiver's own goroutine where it can be recovered.
func TestRecvTruncationPanics(t *testing.T) {
	cases := []struct {
		name      string
		send, dst Buffer
	}{
		{"real", F64(make([]float64, 10)), F64(make([]float64, 5))},
		{"phantom", Phantom(80), Phantom(40)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runJob(t, 2, 1, func(pr *Proc) {
				if pr.Rank() == 0 {
					pr.World().Send(1, 4, tc.send)
					return
				}
				pr.Sleep(1e-3) // let the eager message arrive unexpected
				defer func() {
					r := recover()
					if r == nil {
						t.Error("truncated receive did not panic")
						return
					}
					if !strings.Contains(r.(string), "truncated") {
						t.Errorf("panic %q, want truncation report", r)
					}
				}()
				pr.World().Recv(0, 4, tc.dst)
			})
		})
	}
}

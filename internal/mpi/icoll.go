package mpi

import (
	"fmt"

	"commoverlap/internal/sim"
)

// Nonblocking collectives (MPI-3 style). Posting charges the staging cost
// inline on the caller — so posting several nonblocking collectives back to
// back serializes their staging on the rank's CPU, visibly so in the
// paper's Fig. 6 — and then the rounds of the schedule progress in a child
// simulation process. The child's sends, receives and reduction arithmetic
// contend for the same per-rank CPU resource as everything else the rank
// does, which bounds how much overlap can win.

// spawnColl runs schedule in a child process and returns a request that
// completes when the rank's participation in the collective finishes.
func (c *Comm) spawnColl(name string, schedule func(sp *sim.Proc)) *Request {
	c.p.w.Metrics.Inc("mpi.coll", name)
	req := c.p.w.newRequest(c.p.sp, name, c.p.rank, c.ctx)
	c.p.w.Eng.Spawn(name, func(sp *sim.Proc) {
		schedule(sp)
		req.complete()
	})
	return req
}

// Ibcast posts a nonblocking broadcast of buf from root.
func (c *Comm) Ibcast(root int, buf Buffer) *Request {
	tag := c.postBcast(root, buf)
	return c.spawnColl("ibcast", func(sp *sim.Proc) {
		c.bcastRun(sp, root, buf, tag)
	})
}

// Ireduce posts a nonblocking reduction of sendBuf into recvBuf on root.
func (c *Comm) Ireduce(root int, sendBuf, recvBuf Buffer, op Op) *Request {
	tag := c.post(sendBuf.Bytes(), 1)
	return c.spawnColl("ireduce", func(sp *sim.Proc) {
		c.reduceRun(sp, root, sendBuf, recvBuf, op, tag)
	})
}

// Iallreduce posts a nonblocking in-place allreduce of buf.
func (c *Comm) Iallreduce(buf Buffer, op Op) *Request {
	tag := c.post(buf.Bytes(), 1)
	return c.spawnColl("iallreduce", func(sp *sim.Proc) {
		c.allreduceRun(sp, buf, op, tag)
	})
}

// Ibarrier posts a nonblocking barrier.
func (c *Comm) Ibarrier() *Request {
	tag := c.nextCollTag()
	return c.spawnColl("ibarrier", func(sp *sim.Proc) {
		c.barrierRun(sp, tag)
	})
}

// testOverhead is the CPU cost of one MPI_Test poll.
const testOverhead = 0.1e-6

// PollWait repeatedly tests req every interval seconds of virtual time,
// sleeping in between — the paper's park mechanism for ranks that are
// inactive in a kernel (MPI_Ibarrier + MPI_Test + usleep every 10 ms).
// It returns once the request completes.
//
// A request that never completes would otherwise spin forever: unlike a
// parked process, a poller keeps generating events, so the engine never
// detects the deadlock. World.MaxPollTime bounds the spin; exceeding it
// panics loudly, naming the rank that was never woken.
func (p *Proc) PollWait(req *Request, interval float64) {
	deadline := p.sp.Now() + p.w.MaxPollTime
	for !req.Test() {
		p.w.Metrics.Inc("mpi.poll.spins", "")
		p.w.Net.ChargeCPU(p.sp, p.st.ep, testOverhead)
		if req.Test() {
			return
		}
		if p.w.MaxPollTime > 0 && p.sp.Now() >= deadline {
			panic(fmt.Sprintf(
				"mpi: rank %d polled a request for %g virtual seconds without completion — parked process was never woken",
				p.rank, p.w.MaxPollTime))
		}
		p.sp.Sleep(interval)
	}
}

// DefaultPollInterval matches the paper's 10 ms wake-up check.
const DefaultPollInterval = 10e-3

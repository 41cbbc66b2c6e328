package mpi

import (
	"fmt"

	"commoverlap/internal/sim"
	"commoverlap/internal/trace"
)

// Status describes a completed receive.
type Status struct {
	Source int   // comm rank of the sender
	Tag    int   // actual message tag
	Bytes  int64 // payload size
}

// Request tracks a nonblocking operation. Wait and Test follow MPI
// semantics: a send request completes when the send buffer is reusable, a
// receive request when the payload has arrived, a collective request when
// the rank's participation is finished.
type Request struct {
	done   sim.Gate
	sp     *sim.Proc
	w      *World
	info   reqInfo // what posted it, for teardown diagnostics
	openAt int     // index in World.open until it completes
	// Status is valid after completion of a receive request.
	Status Status
}

// Wait blocks the posting rank until the operation completes. It must be
// called from the goroutine that posted the operation.
func (r *Request) Wait() { r.sp.Wait(&r.done) }

// Test reports whether the operation has completed, without blocking.
// Progress in the simulation is autonomous (as with an MPI progress thread),
// so Test is a pure query.
func (r *Request) Test() bool { return r.done.Fired() }

// waitOn blocks an explicit simulation process (used by collective child
// processes, which are distinct from the posting rank's main process).
func (r *Request) waitOn(sp *sim.Proc) { sp.Wait(&r.done) }

// Waitall waits for every request in order.
func Waitall(reqs ...*Request) {
	for _, r := range reqs {
		r.Wait()
	}
}

// inflight is the receiver-side record of a message: either an eager
// payload that has arrived, or a rendezvous announcement (RTS) whose bulk
// data moves only after a matching receive is posted. Records are recycled
// through World.msgPool; the rendezvous fields are inlined (rather than a
// side object) so one pooled record carries the message through its whole
// protocol, with the static transfer callbacks below receiving it as their
// argument.
type inflight struct {
	ctx, src, tag int   // src is the sender's comm rank
	seq           int64 // per-(ctx, src->dst) send order, drives admission
	bytes         int64
	payload       Buffer     // eager: the bounce copy; rendezvous: the bulk copy
	dst           *rankState // receiver, for the delivery callbacks

	// Rendezvous state, valid when rndv is true: the sender's identity and
	// pinned buffer from the RTS, the send request to complete at bulk
	// injection, and the matched receive captured when the CTS goes back.
	rndv     bool
	srcWorld int // world rank of the sender, for endpoint lookup
	srcBuf   Buffer
	sendReq  *Request
	rbuf     Buffer
	rreq     *Request
}

type postedRecv struct {
	ctx, src, tag int // src/tag may be AnySource/AnyTag
	buf           Buffer
	req           *Request
}

func (m *inflight) matches(r *postedRecv) bool {
	return m.ctx == r.ctx &&
		(r.src == AnySource || r.src == m.src) &&
		(r.tag == AnyTag || r.tag == m.tag)
}

// isendOn posts a send on behalf of sp. Eager messages (<= EagerLimit) are
// buffered and complete at injection; larger messages use a rendezvous
// handshake (RTS/CTS control messages) and complete once the bulk transfer
// has left the sender.
func (c *Comm) isendOn(sp *sim.Proc, dest, tag int, buf Buffer) *Request {
	if dest < 0 || dest >= len(c.group) {
		panic(fmt.Sprintf("mpi: send to rank %d of %d", dest, len(c.group)))
	}
	w := c.p.w
	st := c.p.st
	dstWorld := c.group[dest]
	dst := w.ranks[dstWorld]
	req := w.newRequest(sp, "isend", st.rank, c.ctx)
	size := buf.Bytes()
	sk := pairKey{ctx: c.ctx, peer: dstWorld}
	m := w.getMsg()
	m.ctx, m.src, m.tag = c.ctx, c.rank, tag
	m.seq, m.bytes = st.sendSeq[sk], size
	m.dst = dst
	st.sendSeq[sk]++
	w.emit(trace.MsgPost, m, dstWorld)

	if size <= w.Net.Cfg.EagerLimit {
		w.Metrics.Inc("mpi.msgs", "eager")
		w.Metrics.Add("mpi.msg.bytes", "eager", float64(size))
		m.payload = w.cloneBuf(buf)
		w.Net.TransferFn(st.ep, dst.ep, size, fireReqGate, req, deliverEnvelope, m)
		return req
	}

	w.Metrics.Inc("mpi.msgs", "rndv")
	w.Metrics.Add("mpi.msg.bytes", "rndv", float64(size))
	m.rndv = true
	m.srcWorld = st.rank
	m.srcBuf = buf
	m.sendReq = req
	w.Net.TransferFn(st.ep, dst.ep, 0, nil, nil, deliverEnvelope, m)
	return req
}

// The transfer-completion callbacks are package-level function values: with
// simnet's TransferFn form, registering them moves only a pointer pair, so
// the per-message fast path allocates no closures.
var (
	// fireReqGate completes a request at a transfer milestone (eager
	// injection, rendezvous bulk injection).
	fireReqGate = func(a any) { a.(*Request).complete() }

	// deliverEnvelope hands a delivered envelope (eager payload or
	// rendezvous RTS) to its receiver's matching engine.
	deliverEnvelope = func(a any) { m := a.(*inflight); m.dst.deliver(m) }

	// ctsArrived runs at the sender when the receiver's clear-to-send
	// lands: capture the pinned send buffer and start the bulk transfer.
	// The sender's buffer is captured at transfer start; under MPI
	// semantics the application must not modify it before the send request
	// completes, which is later than this instant.
	ctsArrived = func(a any) {
		m := a.(*inflight)
		w := m.dst.w
		srcSt := w.ranks[m.srcWorld]
		m.payload = w.cloneBuf(m.srcBuf)
		w.Net.TransferBulkFn(srcSt.ep, m.dst.ep, m.bytes, fireReqGate, m.sendReq, bulkDelivered, m)
	}

	// bulkDelivered runs at the receiver when the rendezvous bulk data has
	// fully arrived: copy out, recycle the envelope, complete the receive.
	bulkDelivered = func(a any) {
		m := a.(*inflight)
		w := m.dst.w
		m.rbuf.copyFrom(m.payload)
		rreq := m.rreq
		w.releaseScratch(m.payload)
		w.putMsg(m)
		rreq.complete()
	}
)

// irecvOn posts a receive on behalf of sp. The posted buffer may be larger
// than the incoming message (the extra elements are untouched); a smaller
// buffer is a truncation error and panics.
func (c *Comm) irecvOn(sp *sim.Proc, src, tag int, buf Buffer) *Request {
	if src != AnySource && (src < 0 || src >= len(c.group)) {
		panic(fmt.Sprintf("mpi: recv from rank %d of %d", src, len(c.group)))
	}
	st := c.p.st
	w := c.p.w
	req := w.newRequest(sp, "irecv", st.rank, c.ctx)
	r := w.getRecv()
	r.ctx, r.src, r.tag = c.ctx, src, tag
	r.buf, r.req = buf, req
	for i, m := range st.unexpected {
		if m.matches(r) {
			st.unexpected = append(st.unexpected[:i], st.unexpected[i+1:]...)
			st.complete(m, r)
			return req
		}
	}
	st.posted = append(st.posted, r)
	return req
}

// deliver is called (from a transfer completion) when a message or
// rendezvous announcement becomes visible at this rank. Envelopes enter the
// matching engine strictly in per-(ctx, src) send order — MPI's
// non-overtaking guarantee — regardless of the order the transport produced
// them in: a chronologically early envelope of a later send (a zero-byte
// rendezvous RTS overtaking a fat eager payload, or a tie resolved
// adversarially by the scheduler) is held until its predecessors arrive.
func (st *rankState) deliver(m *inflight) {
	if st.w.UnsafeNoMsgOrder {
		st.recvSeq[pairKey{ctx: m.ctx, peer: m.src}]++
		st.admit(m)
		return
	}
	if m.seq != st.recvSeq[pairKey{ctx: m.ctx, peer: m.src}] {
		st.held = append(st.held, m)
		return
	}
	st.admitNext(m)
	// Admitting m may unblock held successors (and theirs, transitively).
	for {
		advanced := false
		for i, h := range st.held {
			if h.seq == st.recvSeq[pairKey{ctx: h.ctx, peer: h.src}] {
				st.held = append(st.held[:i], st.held[i+1:]...)
				st.admitNext(h)
				advanced = true
				break
			}
		}
		if !advanced {
			return
		}
	}
}

// admitNext advances the admission sequence for m's sender and hands the
// envelope to the matching engine.
func (st *rankState) admitNext(m *inflight) {
	st.recvSeq[pairKey{ctx: m.ctx, peer: m.src}]++
	st.admit(m)
}

// admit hands one envelope to the matching engine: match a posted receive
// or queue as unexpected.
func (st *rankState) admit(m *inflight) {
	st.w.emit(trace.MsgAdmit, m, st.rank)
	for i, r := range st.posted {
		if m.matches(r) {
			st.posted = append(st.posted[:i], st.posted[i+1:]...)
			st.complete(m, r)
			return
		}
	}
	st.unexpected = append(st.unexpected, m)
}

// complete finishes the match: eager messages copy out and complete
// immediately; rendezvous matches send a CTS back to the sender and start
// the bulk transfer when it arrives.
func (st *rankState) complete(m *inflight, r *postedRecv) {
	if !m.payloadFits(r.buf) {
		panic(fmt.Sprintf("mpi: message of %d bytes truncated into %d-byte buffer (src %d tag %d)",
			m.bytes, r.buf.Bytes(), m.src, m.tag))
	}
	st.w.emit(trace.MsgMatch, m, st.rank)
	r.req.Status = Status{Source: m.src, Tag: m.tag, Bytes: m.bytes}
	w := st.w
	if !m.rndv {
		r.buf.copyFrom(m.payload)
		req := r.req
		w.releaseScratch(m.payload)
		w.putMsg(m)
		w.putRecv(r)
		req.complete()
		return
	}
	// Rendezvous: fold the matched receive into the envelope (the record
	// outlives the postedRecv), recycle the posting record, and send the CTS
	// back; ctsArrived starts the bulk transfer at the sender.
	srcSt := w.ranks[m.srcWorld]
	m.rbuf, m.rreq = r.buf, r.req
	w.putRecv(r)
	w.Net.TransferFn(st.ep, srcSt.ep, 0, nil, nil, ctsArrived, m)
}

// payloadFits is MPI's truncation check, the same for real and phantom
// receives: a phantom run of a buffer-sizing bug fails as the real run would.
func (m *inflight) payloadFits(dst Buffer) bool {
	return m.bytes <= dst.Bytes()
}

// waitFree completes an internally posted request and recycles it. Never
// call it on a request that has been returned to the application.
func (r *Request) waitFree(sp *sim.Proc) {
	sp.Wait(&r.done)
	r.w.freeRequest(r)
}

// sendOn is a blocking send on behalf of sp.
func (c *Comm) sendOn(sp *sim.Proc, dest, tag int, buf Buffer) {
	c.isendOn(sp, dest, tag, buf).waitFree(sp)
}

// recvOn is a blocking receive on behalf of sp.
func (c *Comm) recvOn(sp *sim.Proc, src, tag int, buf Buffer) Status {
	req := c.irecvOn(sp, src, tag, buf)
	req.waitOn(sp)
	status := req.Status
	c.p.w.freeRequest(req)
	return status
}

// Isend posts a nonblocking send of buf to dest with the given tag.
func (c *Comm) Isend(dest, tag int, buf Buffer) *Request {
	return c.isendOn(c.p.sp, dest, tag, buf)
}

// Send performs a blocking send (complete when the buffer is reusable).
func (c *Comm) Send(dest, tag int, buf Buffer) {
	c.sendOn(c.p.sp, dest, tag, buf)
}

// Irecv posts a nonblocking receive into buf from src (or AnySource) with
// the given tag (or AnyTag).
func (c *Comm) Irecv(src, tag int, buf Buffer) *Request {
	return c.irecvOn(c.p.sp, src, tag, buf)
}

// Recv performs a blocking receive and returns the message status.
func (c *Comm) Recv(src, tag int, buf Buffer) Status {
	return c.recvOn(c.p.sp, src, tag, buf)
}

// Sendrecv exchanges messages with two peers in one call, posting the
// receive first to avoid the rendezvous deadlock of paired blocking sends.
func (c *Comm) Sendrecv(dest, sendTag int, sendBuf Buffer, src, recvTag int, recvBuf Buffer) Status {
	rreq := c.irecvOn(c.p.sp, src, recvTag, recvBuf)
	c.sendOn(c.p.sp, dest, sendTag, sendBuf)
	rreq.waitOn(c.p.sp)
	status := rreq.Status
	c.p.w.freeRequest(rreq)
	return status
}

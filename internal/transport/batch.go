package transport

// Batch queues datagrams for one Flush. The server's reply sweep forms a
// thread's snapshots one client after another, so a frame's datagrams
// exist together; on a Linux UDP socket Flush hands a whole batch to the
// kernel in one sendmmsg(2) instead of one sendto(2) per datagram.
//
// A Batch belongs to its caller, never to a Conn: the match lobby's one
// socket is shared by every match worker, so per-conn header arrays
// would race. Add copies the datagram into the batch's own arena, so the
// caller may reuse its buffer at once (the reply scratch encodes every
// client's snapshot into one buffer). The arena and header arrays grow
// to the high-water batch size and are then reused: a warm Add and Flush
// allocate nothing.
type Batch struct {
	to   []Addr
	ends []int // ends[i] is datagram i's end offset in buf
	buf  []byte
	sys  batchSys // the platform's sendmmsg state (batch_linux.go)
}

// Add queues one datagram for to, copying data.
func (b *Batch) Add(to Addr, data []byte) {
	b.buf = append(b.buf, data...)
	b.to = append(b.to, to)
	b.ends = append(b.ends, len(b.buf))
}

// Len returns the number of queued datagrams.
func (b *Batch) Len() int { return len(b.to) }

// datagram returns queued datagram i.
func (b *Batch) datagram(i int) []byte {
	lo := 0
	if i > 0 {
		lo = b.ends[i-1]
	}
	return b.buf[lo:b.ends[i]]
}

// Flush sends every queued datagram through c, in order, empties the
// batch, and returns how many send calls it made. On a UDPConn, or a
// MuxPort over one, on linux/amd64 or linux/arm64, that is one sendmmsg
// per batch (more only when the kernel takes part of it); on any other
// Conn or platform — MemConn, FaultConn — it is one Send per datagram,
// so a wrapper still sees every datagram. A datagram the kernel or the Conn rejects is dropped, as a
// failed Send is, and the rest still go.
func (b *Batch) Flush(c Conn) (calls int) {
	if len(b.to) == 0 {
		return 0
	}
	if u := udpOf(c); u != nil {
		calls = b.sys.flush(b, u, c)
	} else {
		calls = b.sendEach(c)
	}
	clear(b.to) // a parked batch must not keep its clients' addresses reachable
	b.to, b.ends, b.buf = b.to[:0], b.ends[:0], b.buf[:0]
	return calls
}

// sendEach sends the queued datagrams through c.Send, one call each.
func (b *Batch) sendEach(c Conn) int {
	for i, to := range b.to {
		_ = c.Send(to, b.datagram(i))
	}
	return len(b.to)
}

// udpOf returns the UDP socket a Conn sends through directly, or nil
// when sends must go through the Conn's own Send.
func udpOf(c Conn) *UDPConn {
	switch cc := c.(type) {
	case *UDPConn:
		return cc
	case *MuxPort:
		u, _ := cc.inner.(*UDPConn)
		return u
	}
	return nil
}

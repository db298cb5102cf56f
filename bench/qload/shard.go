//go:build linux

package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"qserve/internal/protocol"
	"qserve/internal/transport"
)

// tickNs is how often a shard looks for moves to resend or expire when
// no datagram wakes it.
const tickNs = int64(10e6)

// shard is the generator's event loop: the client sockets behind one
// epoll set, driven by one goroutine on a locked OS thread.
type shard struct {
	clients []*client
	groups  [phaseGroups]phaseGroup // open loop only
	st      loadStats
	tr      *tracer
	abort   *atomic.Bool // set when the workload's hard deadline passed
}

// phaseGroup is the shard's clients that share one due time.
type phaseGroup struct {
	clients []*client
	next    int64 // due time of the group's next move
}

func newShard(clients []*client, sc *schedule, tr *tracer, abort *atomic.Bool) *shard {
	s := &shard{clients: clients, tr: tr, abort: abort}
	if !sc.closed {
		for _, c := range clients {
			g := &s.groups[c.idx%phaseGroups]
			g.clients = append(g.clients, c)
			g.next = dueTime(sc.t0, c.idx, 0)
		}
	}
	perClient := int((sc.windowEnd-sc.warmEnd)/frameNs) + 64
	if sc.closed {
		perClient *= 8 // a closed loop turns round several times per client frame
	}
	s.st.lat = make([]int64, 0, perClient*len(clients))
	if !sc.closed {
		s.st.late = make([]int64, 0, perClient*len(clients))
	}
	return s
}

// run drives the shard from t0 until the window has closed and every
// counted move is answered or expired.
func (s *shard) run(sc *schedule) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard panicked: %v", r)
		}
	}()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	ep, err := epollCreate()
	if err != nil {
		return err
	}
	defer syscall.Close(ep)
	tfd, err := timerfdCreate()
	if err != nil {
		return err
	}
	defer syscall.Close(tfd)
	if err := epollAdd(ep, tfd, timerTag); err != nil {
		return err
	}
	for i, c := range s.clients {
		if err := epollAdd(ep, c.fd, int32(i)); err != nil {
			return err
		}
	}

	if d := sc.t0 - nowNs(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	events := make([]syscall.EpollEvent, 256)
	buf := make([]byte, 4*transport.MaxDatagram)
	nextTick := nowNs()
	armed := int64(-1) // the instant the timer is set for
	for {
		now := nowNs()
		if s.abort.Load() {
			return fmt.Errorf("aborted at the workload deadline")
		}
		// Timed work first, so a burst of replies cannot delay a send
		// that is already due.
		if !sc.closed {
			s.sendDue(now, sc)
		}
		if now >= nextTick {
			s.tick(now, sc)
			nextTick = now + tickNs
		}
		if now >= sc.windowEnd && !s.outstanding() {
			return nil
		}
		wake := nextTick
		if !sc.closed {
			for g := range s.groups {
				if grp := &s.groups[g]; len(grp.clients) > 0 && grp.next < sc.windowEnd && grp.next < wake {
					wake = grp.next
				}
			}
		}
		if wake != armed { // still set from the last pass otherwise
			if err := timerfdArm(tfd, time.Duration(wake-nowNs())); err != nil {
				return err
			}
			armed = wake
		}
		n, err := epollWait(ep, events, -1)
		if err != nil {
			return err
		}
		for _, ev := range events[:n] {
			if ev.Fd == timerTag {
				timerfdClear(tfd)
				armed = -1 // one-shot: it has to be set again
				continue
			}
			s.receive(s.clients[ev.Fd], buf, sc)
		}
	}
}

// receive takes one datagram off a readable client socket; epoll is
// level-triggered, so a socket holding more comes straight back. The
// arrival stamp is taken before the read: a reply is timed when the loop
// woke for it, not when it got round to sending the next move.
func (s *shard) receive(c *client, buf []byte, sc *schedule) {
	now := nowNs()
	s.tr.begin(spanRecv, 0)
	n, err := syscall.Read(c.fd, buf)
	if err != nil || n <= 0 {
		s.tr.cancel() // EAGAIN or EINTR: epoll reports the socket again if it still holds data
		return
	}
	s.tr.end()
	answered := c.onDatagram(buf[:n], now, sc, &s.st, s.tr)
	// Closed loop: the answer to the last move releases the next one.
	if sc.closed && answered && len(c.pending) == 0 {
		if t := nowNs(); t < sc.windowEnd {
			c.sendMove(t, t, sc, &s.st, s.tr)
		}
	}
}

// sendDue sends every open-loop move whose due time has come. A late
// generator sends late, and says by how much; it never skips a move.
func (s *shard) sendDue(now int64, sc *schedule) {
	for g := range s.groups {
		grp := &s.groups[g]
		for len(grp.clients) > 0 && grp.next <= now && grp.next < sc.windowEnd {
			for _, c := range grp.clients {
				c.expire(now, &s.st)
				t := nowNs()
				c.sendMove(grp.next, t, sc, &s.st, s.tr)
				if sc.inWindow(grp.next) {
					s.st.late = append(s.st.late, t-grp.next)
				}
			}
			grp.next += frameNs
		}
	}
}

// tick expires stale moves and, in a closed loop, starts the clients and
// restarts any that have heard nothing for resendNs.
func (s *shard) tick(now int64, sc *schedule) {
	for _, c := range s.clients {
		c.expire(now, &s.st)
		if sc.closed && now < sc.windowEnd && (c.seq == 0 || now-c.lastSend > resendNs) {
			if c.seq > 0 {
				s.st.resends++
			}
			c.sendMove(now, now, sc, &s.st, s.tr)
		}
	}
}

// outstanding reports whether a counted move still awaits its answer.
func (s *shard) outstanding() bool {
	for _, c := range s.clients {
		for _, p := range c.pending {
			if p.counted {
				return true
			}
		}
	}
	return false
}

// connectAll performs the Connect/Accept handshake for every client
// against base, retrying unanswered requests, and points each accepted
// client at the address its Accept names. It returns how many failed.
func connectAll(clients []*client, base *syscall.SockaddrInet4, timeout time.Duration) (failed int, err error) {
	ep, err := epollCreate()
	if err != nil {
		return 0, err
	}
	defer syscall.Close(ep)
	for i, c := range clients {
		if err := epollAdd(ep, c.fd, int32(i)); err != nil {
			return 0, err
		}
	}
	const retry = 200 * time.Millisecond
	deadline := time.Now().Add(timeout)
	events := make([]syscall.EpollEvent, 256)
	buf := make([]byte, transport.MaxDatagram)
	waiting := len(clients)
	for waiting > 0 && time.Now().Before(deadline) {
		for _, c := range clients {
			if !c.accepted && c.rejected == "" {
				_ = c.sendConnect(base) // an unsent request is retried next round
			}
		}
		round := time.Now().Add(retry)
		for waiting > 0 {
			left := time.Until(round)
			if left <= 0 {
				break
			}
			n, err := epollWait(ep, events, int(left/time.Millisecond)+1)
			if err != nil {
				return 0, err
			}
			for _, ev := range events[:n] {
				c := clients[ev.Fd]
				for {
					n, err := syscall.Read(c.fd, buf)
					if err == syscall.EINTR {
						continue
					}
					if err != nil || n <= 0 {
						break
					}
					if c.accepted || c.rejected != "" {
						continue
					}
					msg, err := protocol.Decode(buf[:n])
					if err != nil {
						continue
					}
					switch m := msg.(type) {
					case *protocol.Accept:
						to, err := parseInet4(m.Addr)
						if err != nil {
							c.rejected = err.Error()
						} else {
							c.to, c.accepted = to, true
						}
						waiting--
					case *protocol.Reject:
						c.rejected = m.Reason
						waiting--
					}
				}
			}
		}
	}
	for _, c := range clients {
		if !c.accepted {
			failed++
		}
	}
	return failed, nil
}

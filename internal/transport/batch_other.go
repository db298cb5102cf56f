//go:build !linux || !(amd64 || arm64)

package transport

// udpSend is empty here: a Batch sends one datagram at a time.
type udpSend struct{}

func (*udpSend) init(*UDPConn) error { return nil }

// batchSys is empty here; flush calls Send once per datagram.
type batchSys struct{}

func (*batchSys) flush(b *Batch, _ *UDPConn, c Conn) int { return b.sendEach(c) }

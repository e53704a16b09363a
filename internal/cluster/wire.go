// Package cluster is the networked runtime for the paper's distributed
// scheduling architecture: the N independent per-output-fiber schedulers
// are sharded across worker nodes reachable over TCP or unix sockets,
// instead of goroutines inside one process.
//
// The division of labor follows from the schedulers being pure functions
// of one slot's request vector (count, occupied, mask) — see core.Scheduler.
// All mutable simulation state (channel holds, selector round-robin
// pointers, statistics) stays on the controller; nodes are stateless
// matching servers. That single property buys the whole robustness story:
//
//   - a duplicated or replayed frame recomputes the same answer;
//   - a node that misses its slot deadline can be replaced, mid-run, by
//     the controller's local fallback scheduler with bit-identical output;
//   - a node can crash and reconnect with no state transfer.
//
// Consequently a cluster run's Stats are byte-identical to the in-process
// sequential and distributed engines given the same seed and trace — the
// keystone correctness property, asserted by tests and CI.
//
// Wire protocol (version 2): frames in the internal/wire envelope under
// magic 0x57C1, payloads capped at 64 MiB. A frame whose version byte
// differs from this build's is rejected with a *wire.VersionError naming
// both versions; the node additionally replies with an error frame
// stamped with the peer's version byte so an old controller can still
// decode the rejection. There is no downgrade path — v2 peers fail fast
// against v1 peers and vice versa.
//
// Messages (controller → node unless noted):
//
//	hello     nonce u64 — session open; node echoes helloAck
//	config    n u32, kind u8, k u32, e u32, f u32, scheduler string,
//	          ports u32 + u32×ports — node builds one scheduler for
//	          the session's assigned ports, which it schedules one after
//	          another, and echoes configAck
//	schedule  seq u64, slot u64, run u64, span u64, t0 i64, items u32,
//	          then per item: port u32, count u16×k, occupied bitmap
//	          ⌈k/8⌉ bytes, maskFlag u8 (+ k mask bytes when 1).
//	          run/span are the trace context (run ID, per-RPC span ID);
//	          t0 is the controller's span clock at send time.
//	grants    (node → controller) seq u64, slot u64, span u64 (echoed),
//	          t1 i64, t2 i64, t3 i64, t4 i64, items u32, then per item:
//	          port u32, result, shadowFlag u8 (+ shadow result when the
//	          request was masked); result = size u16, break i16,
//	          byOutput i16×k (−1 = unassigned; Granted is re-derived).
//	          t1..t4 are node span-clock stamps: frame receipt, decode
//	          done, schedule barrier done, reply encoded — the controller
//	          derives per-stage attribution and, with its own send/receive
//	          stamps, the node's clock offset (NTP-style RTT/2 correction).
//	ping/pong seq u64 — health probe
//	error     (node → controller) seq u64, message string
//
// Version 1 lacked run/span/t* trace context on schedule and grants
// frames; everything else is unchanged.
//
// Encoding and decoding on the schedule/grants hot path are
// allocation-free: frames build in reused buffers and decode by cursor
// over the read buffer; the late timestamps (t0, t4) are patched into the
// encoded frame at fixed offsets immediately before it is written.
package cluster

import "wdmsched/internal/wire"

const (
	// Payload offsets of the timestamps patched in after encoding:
	// schedule t0 follows seq+slot+run+span; grants t4 follows
	// seq+slot+span+t1+t2+t3.
	schedT0Off  = 32
	grantsT4Off = 48

	// Shape caps: validated at configure time so per-item sizes computed
	// from k cannot overflow and counts fit the u16 wire width.
	maxPorts       = 1 << 20
	maxWavelengths = 1 << 12
)

// Message types.
const (
	msgHello uint8 = 1 + iota
	msgHelloAck
	msgConfig
	msgConfigAck
	msgSchedule
	msgGrants
	msgPing
	msgPong
	msgError
)

// proto is the cluster protocol on the shared frame envelope.
var proto = wire.Proto{
	Name:       "cluster",
	Magic:      0x57C1,
	Version:    2,
	MaxPayload: 64 << 20,
	Types: []string{msgHello: "hello", msgHelloAck: "hello-ack", msgConfig: "config",
		msgConfigAck: "config-ack", msgSchedule: "schedule", msgGrants: "grants",
		msgPing: "ping", msgPong: "pong", msgError: "error"},
}

// occupiedBitmapLen is the wire size of a k-channel occupancy bitmap.
func occupiedBitmapLen(k int) int { return (k + 7) / 8 }

// appendOccupied packs a []bool into the bitmap wire form.
func appendOccupied(b []byte, occupied []bool) []byte {
	var cur byte
	for i, o := range occupied {
		if o {
			cur |= 1 << (i & 7)
		}
		if i&7 == 7 {
			b = append(b, cur)
			cur = 0
		}
	}
	if len(occupied)&7 != 0 {
		b = append(b, cur)
	}
	return b
}

// readOccupied unpacks a bitmap into dst (len k, reused).
func readOccupied(r *wire.Reader, dst []bool) {
	bm := r.Bytes(occupiedBitmapLen(len(dst)))
	if bm == nil {
		return
	}
	for i := range dst {
		dst[i] = bm[i>>3]&(1<<(i&7)) != 0
	}
}

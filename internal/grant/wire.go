// Package grant is the scheduler-as-a-service layer: a long-running
// grant service that accepts connection requests from many concurrent
// external clients, batches them into slot-aligned scheduling rounds on
// the existing switch engines, and streams grant/reject/retry verdicts
// back. It is the open-loop counterpart of the closed-loop simulators:
// traffic originates outside the process, so admission control,
// per-tenant QoS, backpressure and graceful drain become first-class
// concerns instead of simulation parameters.
//
// Wire protocol (version 1): frames in the internal/wire envelope under
// magic 0x57C2 (the cluster runtime's is 0x57C1, so the two sockets can
// never be confused for one another), payloads capped at 16 MiB.
//
// Messages (client → server unless noted):
//
//	hello     nonce u64, tenant string — session open; the server
//	          resolves the tenant's admission policy and echoes helloAck
//	helloAck  (server → client) nonce u64, n u32, k u32, class u8,
//	          rate f64 (requests/second), burst f64, queue u32 — the
//	          switch shape and the tenant's effective policy
//	submit    count u32, then per request: id u64, in u32, wave u16,
//	          dest u32, dur u16. IDs are session-scoped and chosen by the
//	          client; every submitted request produces exactly one
//	          verdict entry carrying the same id.
//	verdicts  (server → client) count u32, then per entry: id u64,
//	          verdict u8, slot i64, channel i16, wait u32 (RETRY-AFTER
//	          hint, milliseconds; 0 unless the verdict is a retry)
//	drain     (server → client) reason string — the server stopped
//	          admitting; everything already queued will still be
//	          scheduled and acknowledged before the final ledger
//	bye       client is done submitting and has collected all verdicts;
//	          the server replies with ledger and closes the session
//	ledger    (server → client) submitted u64, admitted u64, granted
//	          u64, rejected u64, retried u64 — the session's final
//	          accounting; submitted = granted + rejected + retried
//	error     (either direction) message string — protocol failure; the
//	          session ends after it
//
// Encoding and decoding on the submit/verdict hot path are
// allocation-free.
package grant

import (
	"fmt"

	"wdmsched/internal/wire"
)

const (
	// submitItemLen is the encoded size of one submit entry:
	// id u64 + in u32 + wave u16 + dest u32 + dur u16.
	submitItemLen = 8 + 4 + 2 + 4 + 2
	// verdictItemLen is the encoded size of one verdict entry:
	// id u64 + verdict u8 + slot i64 + channel i16 + wait u32.
	verdictItemLen = 8 + 1 + 8 + 2 + 4
	// maxBatch caps the entries in one submit or verdicts frame.
	maxBatch = 1 << 16
)

// Message types.
const (
	msgHello uint8 = 1 + iota
	msgHelloAck
	msgSubmit
	msgVerdicts
	msgDrain
	msgBye
	msgLedger
	msgError
)

// proto is the grant protocol on the shared frame envelope.
var proto = wire.Proto{
	Name:       "grant",
	Magic:      0x57C2,
	Version:    1,
	MaxPayload: 16 << 20,
	Types: []string{msgHello: "hello", msgHelloAck: "hello-ack", msgSubmit: "submit",
		msgVerdicts: "verdicts", msgDrain: "drain", msgBye: "bye", msgLedger: "ledger",
		msgError: "error"},
}

// Verdict is the terminal disposition of one submitted request. Every
// request gets exactly one: a grant, a reject, or a retry — nothing is
// silently dropped, which is the property wdmload asserts end to end.
type Verdict uint8

const (
	// VerdictGranted: the connection was switched; Slot and Channel in
	// the notice say when and on which output channel.
	VerdictGranted Verdict = 1 + iota
	// VerdictRejected: the request reached a scheduling round but lost
	// the output-contention matching (the paper's dropped packet).
	VerdictRejected
	// VerdictRejectedAdmission: the tenant's policy admits nothing
	// (rate 0 — administratively blocked); retrying is futile.
	VerdictRejectedAdmission
	// VerdictRetryBucket: the tenant's token bucket is empty; retry
	// after the notice's wait hint.
	VerdictRetryBucket
	// VerdictRetryQueue: the tenant's ingress queue is full
	// (backpressure); retry after the notice's wait hint.
	VerdictRetryQueue
	// VerdictRetryDrain: the server is draining and admits nothing new.
	VerdictRetryDrain
)

func (v Verdict) String() string {
	switch v {
	case VerdictGranted:
		return "granted"
	case VerdictRejected:
		return "rejected-contention"
	case VerdictRejectedAdmission:
		return "rejected-admission"
	case VerdictRetryBucket:
		return "retry-bucket"
	case VerdictRetryQueue:
		return "retry-queue"
	case VerdictRetryDrain:
		return "retry-drain"
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// Granted reports whether the verdict is a grant.
func (v Verdict) Granted() bool { return v == VerdictGranted }

// Rejected reports whether the verdict is a terminal reject.
func (v Verdict) Rejected() bool {
	return v == VerdictRejected || v == VerdictRejectedAdmission
}

// Retry reports whether the verdict asks the client to come back later.
func (v Verdict) Retry() bool {
	return v == VerdictRetryBucket || v == VerdictRetryQueue || v == VerdictRetryDrain
}

// Req is one connection request as submitted on the wire: input channel
// (fiber In, wavelength Wave), destination output fiber and duration in
// slots.
type Req struct {
	ID   uint64
	In   uint32
	Wave uint16
	Dest uint32
	Dur  uint16
}

// Notice is one verdict entry as delivered on the wire.
type Notice struct {
	ID      uint64
	Verdict Verdict
	Slot    int64
	Channel int16  // granted output channel; -1 otherwise
	WaitMS  uint32 // RETRY-AFTER hint; 0 unless Verdict.Retry()
}

// Ledger is a session's or the whole server's final accounting. The
// terminal partition Submitted = Granted + Rejected + Retried always
// holds; Admitted counts the subset that passed admission control
// (Admitted = Granted + Rejected once all queues have drained).
type Ledger struct {
	Submitted uint64 `json:"submitted"`
	Admitted  uint64 `json:"admitted"`
	Granted   uint64 `json:"granted"`
	Rejected  uint64 `json:"rejected"`
	Retried   uint64 `json:"retried"`
}

// Balanced reports whether the terminal partition holds.
func (l *Ledger) Balanced() bool {
	return l.Submitted == l.Granted+l.Rejected+l.Retried
}

// Frame payload encoders. Each appends to b and returns the extended
// slice; the connection wraps the payload in the frame envelope.

func encHello(b []byte, nonce uint64, tenant string) []byte {
	b = wire.PutU64(b, nonce)
	return wire.PutString(b, tenant)
}

func encHelloAck(b []byte, nonce uint64, n, k int, pol Policy) []byte {
	b = wire.PutU64(b, nonce)
	b = wire.PutU32(b, uint32(n))
	b = wire.PutU32(b, uint32(k))
	b = append(b, uint8(pol.Class))
	b = wire.PutF64(b, pol.Rate)
	b = wire.PutF64(b, pol.Burst)
	return wire.PutU32(b, uint32(pol.Queue))
}

func encLedger(b []byte, l Ledger) []byte {
	b = wire.PutU64(b, l.Submitted)
	b = wire.PutU64(b, l.Admitted)
	b = wire.PutU64(b, l.Granted)
	b = wire.PutU64(b, l.Rejected)
	return wire.PutU64(b, l.Retried)
}

func decLedger(r *wire.Reader) Ledger {
	return Ledger{
		Submitted: r.U64(),
		Admitted:  r.U64(),
		Granted:   r.U64(),
		Rejected:  r.U64(),
		Retried:   r.U64(),
	}
}

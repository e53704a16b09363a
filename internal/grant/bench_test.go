package grant

import (
	"encoding/binary"
	"sync"
	"testing"

	"wdmsched/internal/interconnect"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/wavelength"
	"wdmsched/internal/wire"
)

// benchService builds a service of 8 fibers × conv.K() wavelengths with
// admission wide open, and one session on it. No listener and no round
// loop: the benchmarks drive the hot path directly.
func benchService(tb testing.TB, conv wavelength.Conversion) (*Service, *session) {
	tb.Helper()
	s, err := NewService(Config{
		Switch:  interconnect.Config{N: 8, Conv: conv, Scheduler: "exact", Seed: 1},
		Default: Policy{Class: 0, Rate: 1e12, Burst: 1e6, Queue: 4096},
	})
	if err != nil {
		tb.Fatal(err)
	}
	s.mu.Lock()
	t := s.tenantLocked("bench")
	s.mu.Unlock()
	return s, &session{tenant: t}
}

// benchIngestService builds a service sized so one 64-request frame maps
// onto 64 distinct input channels (8×8 shape), and that frame: decode,
// admission booking, enqueue, batch build.
func benchIngestService(tb testing.TB) (*Service, *session, []byte) {
	tb.Helper()
	conv, err := wavelength.NewSymmetric(wavelength.Circular, 8, 3)
	if err != nil {
		tb.Fatal(err)
	}
	s, sess := benchService(tb, conv)

	const frame = 64
	b := wire.PutU32(nil, frame)
	for i := 0; i < frame; i++ {
		b = wire.PutU64(b, uint64(i))   // id
		b = wire.PutU32(b, uint32(i/8)) // in
		b = wire.PutU16(b, uint16(i%8)) // wave
		b = wire.PutU32(b, uint32(i%8)) // dest
		b = wire.PutU16(b, 1)           // dur
	}
	return s, sess, b
}

// ingestAndBatch is one benchmark iteration: decode and admit a 64-request
// frame, then drain it into a slot batch. Advancing s.slot stands in for
// runRound so the channel stamps from the previous iteration go stale.
func ingestAndBatch(tb testing.TB, s *Service, sess *session, payload []byte) {
	if !s.ingest(sess, payload, telemetry.NowNS()) {
		tb.Fatal("ingest rejected the benchmark frame")
	}
	s.mu.Lock()
	s.buildBatchLocked()
	n := len(s.batch)
	s.mu.Unlock()
	if n != 64 {
		tb.Fatalf("batch has %d packets, want 64", n)
	}
	s.slot++
}

// ingestAndRound is one full-lifecycle iteration: ingest and batch as
// above, then run the engine slot, settle every request (stage-histogram
// observation and exemplar offers included) and encode the verdict
// frames. Resetting the egress buffer afterwards stands in for the
// session writer draining it.
func ingestAndRound(tb testing.TB, s *Service, sess *session, payload []byte) {
	if !s.ingest(sess, payload, telemetry.NowNS()) {
		tb.Fatal("ingest rejected the benchmark frame")
	}
	want := int(binary.BigEndian.Uint32(payload)) // the frame's request count
	s.mu.Lock()
	s.buildBatchLocked()
	n := len(s.batch)
	s.mu.Unlock()
	if n != want {
		tb.Fatalf("batch has %d packets, want %d", n, want)
	}
	if err := s.runRound(); err != nil {
		tb.Fatal(err)
	}
	sess.wmu.Lock()
	sess.out = sess.out[:0]
	sess.outN = 0
	sess.wmu.Unlock()
}

// BenchmarkGrantIngest measures the wire-facing hot path of the grant
// service: submit-frame decode, per-request admission, bounded-queue
// enqueue and the strict-priority batch build. Steady state this path
// must not allocate (TestGrantIngestZeroAllocs pins it).
func BenchmarkGrantIngest(b *testing.B) {
	s, sess, payload := benchIngestService(b)
	ingestAndBatch(b, s, sess, payload) // warm the reused buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ingestAndBatch(b, s, sess, payload)
	}
	b.SetBytes(int64(len(payload)))
}

// TestGrantIngestZeroAllocs pins the ingest path as a -benchmem
// assertion: decode → admit (stage stamps included) → enqueue → batch
// must report 0 allocs/op.
func TestGrantIngestZeroAllocs(t *testing.T) {
	s, sess, payload := benchIngestService(t)
	ingestAndBatch(t, s, sess, payload)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ingestAndBatch(b, s, sess, payload)
		}
	})
	if a := r.AllocsPerOp(); a != 0 {
		t.Errorf("grant ingest: %d allocs/op, want 0 (%s)", a, r.MemString())
	}
}

// benchRoundService extends the ingest fixture for full rounds: the
// session gets a writer condvar (flushRound signals it) and reconcile is
// pushed out past the benchmark horizon so the measured loop is pure
// request lifecycle — its first engine Snapshot would be a one-time
// allocation, not a hot-path one.
func benchRoundService(tb testing.TB) (*Service, *session, []byte) {
	s, sess, payload := benchIngestService(tb)
	enableRounds(s, sess)
	return s, sess, payload
}

func enableRounds(s *Service, sess *session) {
	sess.wcond = sync.NewCond(&sess.wmu)
	sess.egressMax = defaultEgressBuffer
	s.cfg.Resync = 1 << 40
}

// heldFrame overwrites payload with round i's frame of the frame1-held
// case: one 4-slot request on input channel i mod N·k, so three earlier
// grants are always still holding their channels and no request ever meets
// its own hold.
func heldFrame(payload []byte, i, k int) []byte {
	ch := i % (8 * k)
	b := wire.PutU32(payload[:0], 1)
	b = wire.PutU64(b, uint64(i))    // id
	b = wire.PutU32(b, uint32(ch/k)) // in
	b = wire.PutU16(b, uint16(ch%k)) // wave
	b = wire.PutU32(b, uint32(i%8))  // dest
	return wire.PutU16(b, 4)         // dur
}

// BenchmarkGrantRound measures the full request lifecycle with the stage
// clock and exemplar recording on: ingest, batch build, engine slot,
// settle (six stage observations per request), verdict encode and
// exemplar offers. frame64 is a full 64-request round of one-slot
// requests on the 8×8 shape; frame1-held is the smallest round there is,
// on bench/'s 8×256 shape with multi-slot holds in flight — what is left
// of it is what a round costs whatever its size, the hold tables included.
func BenchmarkGrantRound(b *testing.B) {
	b.Run("frame64", func(b *testing.B) {
		s, sess, payload := benchRoundService(b)
		ingestAndRound(b, s, sess, payload)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ingestAndRound(b, s, sess, payload)
		}
		b.SetBytes(int64(len(payload)))
	})
	b.Run("frame1-held", func(b *testing.B) {
		const k = 256
		s, sess := benchService(b, wavelength.MustNew(wavelength.Circular, k, 20, 20))
		enableRounds(s, sess)
		payload := heldFrame(nil, 0, k)
		ingestAndRound(b, s, sess, payload)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 1; i <= b.N; i++ {
			ingestAndRound(b, s, sess, heldFrame(payload, i, k))
		}
		b.SetBytes(int64(len(payload)))
	})
}

// TestGrantRoundZeroAllocs pins the full lifecycle — stage clocks,
// per-stage histogram observation and exemplar-ring offers included —
// at 0 allocs/op.
func TestGrantRoundZeroAllocs(t *testing.T) {
	s, sess, payload := benchRoundService(t)
	ingestAndRound(t, s, sess, payload)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ingestAndRound(b, s, sess, payload)
		}
	})
	if a := r.AllocsPerOp(); a != 0 {
		t.Errorf("grant round: %d allocs/op, want 0 (%s)", a, r.MemString())
	}
	if n := s.rec.Exemplars().Offered(); n == 0 {
		t.Error("exemplar ring saw no offers; the pin no longer covers exemplar recording")
	}
	for st, h := range s.stages {
		if h.Count() == 0 {
			t.Errorf("stage %s histogram empty; the pin no longer covers the stage clock", telemetry.GrantStageNames[st])
		}
	}
}

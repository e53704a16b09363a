package traffic

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"
)

// recordPackets runs gen for slots slots, returning the per-slot streams.
func recordPackets(t *testing.T, gen Generator, slots int) [][]Packet {
	t.Helper()
	out := make([][]Packet, slots)
	for s := 0; s < slots; s++ {
		out[s] = gen.Generate(s, nil)
	}
	return out
}

func ctraceBytes(t *testing.T, slots [][]Packet, n, k int) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, n, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkts := range slots {
		if err := tw.WriteSlot(pkts); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCompressedTraceRoundTrip(t *testing.T) {
	cfg := Config{N: 6, K: 5, Seed: 21, Hold: HoldingTime{Mean: 3}}
	gen, err := NewHeavyTail(cfg, 0.3, 1.6, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	const slots = 500
	want := recordPackets(t, gen, slots)
	data := ctraceBytes(t, want, cfg.N, cfg.K)

	tr, err := OpenTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if tr.N() != cfg.N || tr.K() != cfg.K {
		t.Fatalf("shape %dx%d, want %dx%d", tr.N(), tr.K(), cfg.N, cfg.K)
	}
	for s := 0; s < slots; s++ {
		got, err := tr.NextSlot(nil)
		if err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		if len(got) != len(want[s]) {
			t.Fatalf("slot %d: %d packets, want %d", s, len(got), len(want[s]))
		}
		for i := range got {
			if got[i] != want[s][i] {
				t.Fatalf("slot %d packet %d: %+v, want %+v", s, i, got[i], want[s][i])
			}
		}
	}
	if _, err := tr.NextSlot(nil); err != io.EOF {
		t.Fatalf("after last slot: %v, want io.EOF", err)
	}
	if tr.Slots() != slots {
		t.Fatalf("Slots = %d, want %d", tr.Slots(), slots)
	}
	// EOF is sticky.
	if _, err := tr.NextSlot(nil); err != io.EOF {
		t.Fatalf("repeated read: %v, want io.EOF", err)
	}
}

func TestCompressedTraceGeneratorReplay(t *testing.T) {
	cfg := Config{N: 4, K: 4, Seed: 9}
	gen, err := NewSelfSimilar(cfg, 0.4, 1.5, 32)
	if err != nil {
		t.Fatal(err)
	}
	const slots = 300
	want := recordPackets(t, gen, slots)
	data := ctraceBytes(t, want, cfg.N, cfg.K)

	tr, err := OpenTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	replay := tr.Generator()
	for s := 0; s < slots+5; s++ {
		got := replay.Generate(s, nil)
		var exp []Packet
		if s < slots {
			exp = want[s]
		}
		if len(got) != len(exp) {
			t.Fatalf("slot %d: %d packets, want %d", s, len(got), len(exp))
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("slot %d packet %d: %+v, want %+v", s, i, got[i], exp[i])
			}
		}
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("reader error after clean replay: %v", err)
	}
	// Non-sequential replay is an error, not silent corruption.
	tr2, err := OpenTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	replay2 := tr2.Generator()
	replay2.Generate(0, nil)
	replay2.Generate(2, nil)
	if tr2.Err() == nil {
		t.Fatal("skipping a slot left no reader error")
	}
}

func TestCompressedTraceGobBridge(t *testing.T) {
	cfg := Config{N: 5, K: 3, Seed: 2}
	gen, err := NewBernoulli(cfg, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Record(gen, cfg, 120)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, tr.N, tr.K)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkts := range tr.Slots {
		if err := tw.WriteSlot(pkts); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCompressedTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != tr.N || got.K != tr.K || len(got.Slots) != len(tr.Slots) {
		t.Fatalf("shape %dx%d/%d, want %dx%d/%d", got.N, got.K, len(got.Slots), tr.N, tr.K, len(tr.Slots))
	}
	if got.NumPackets() != tr.NumPackets() {
		t.Fatalf("NumPackets %d, want %d", got.NumPackets(), tr.NumPackets())
	}
	for s := range tr.Slots {
		for i := range tr.Slots[s] {
			if got.Slots[s][i] != tr.Slots[s][i] {
				t.Fatalf("slot %d packet %d: %+v, want %+v", s, i, got.Slots[s][i], tr.Slots[s][i])
			}
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompressedTraceTruncated(t *testing.T) {
	cfg := Config{N: 4, K: 4, Seed: 8}
	gen, err := NewBernoulli(cfg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	data := ctraceBytes(t, recordPackets(t, gen, 60), cfg.N, cfg.K)
	// Every truncated prefix must fail cleanly: at open, at some NextSlot,
	// or at the missing footer — never succeed with a full 60-slot read.
	for cut := 1; cut < len(data); cut += 5 {
		tr, err := OpenTraceReader(bytes.NewReader(data[:cut]))
		if err != nil {
			continue
		}
		slots := 0
		for {
			_, err := tr.NextSlot(nil)
			if err == io.EOF {
				t.Fatalf("cut=%d: truncated trace read cleanly to EOF after %d slots", cut, slots)
			}
			if err != nil {
				break
			}
			slots++
			if slots > 60 {
				t.Fatalf("cut=%d: runaway slot count", cut)
			}
		}
	}
}

func TestCompressedTraceCorrupt(t *testing.T) {
	cfg := Config{N: 4, K: 4, Seed: 8}
	gen, err := NewBernoulli(cfg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := recordPackets(t, gen, 40)
	data := ctraceBytes(t, want, cfg.N, cfg.K)
	wantTotal := 0
	for _, s := range want {
		wantTotal += len(s)
	}
	// Flip one byte at a time. Survivors (gzip CRC happens to pass AND
	// the varint stream still parses) must still deliver shape-valid
	// packets and a consistent footer — NextSlot validates both — but
	// most flips must surface as errors somewhere.
	failures := 0
	for pos := 0; pos < len(data); pos += 3 {
		mut := bytes.Clone(data)
		mut[pos] ^= 0x41
		tr, err := OpenTraceReader(bytes.NewReader(mut))
		if err != nil {
			failures++
			continue
		}
		total := 0
		for {
			pkts, err := tr.NextSlot(nil)
			if err == io.EOF {
				if total != wantTotal || tr.Slots() != 40 {
					t.Fatalf("pos=%d: corrupt trace passed footer with %d packets/%d slots", pos, total, tr.Slots())
				}
				break
			}
			if err != nil {
				failures++
				break
			}
			for _, p := range pkts {
				if p.InputFiber < 0 || p.InputFiber >= cfg.N || p.Wavelength < 0 || p.Wavelength >= cfg.K ||
					p.DestFiber < 0 || p.DestFiber >= cfg.N || p.Duration < 1 {
					t.Fatalf("pos=%d: NextSlot returned out-of-shape packet %+v", pos, p)
				}
			}
			total += len(pkts)
			if tr.Slots() > 40 {
				failures++
				break
			}
		}
	}
	if failures == 0 {
		t.Fatal("no byte flip produced a decode error")
	}
}

func TestCompressedTraceRejectsGarbage(t *testing.T) {
	if _, err := OpenTraceReader(bytes.NewReader([]byte("not a gzip stream at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// A valid gzip stream with the wrong magic.
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write([]byte("XYZ!some payload")); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTraceReader(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("wrong magic accepted")
	}
	// A corrupt shape (N = 0) behind a correct magic.
	buf.Reset()
	gz = gzip.NewWriter(&buf)
	payload := append([]byte("WDT2"), 0, 3)
	if _, err := gz.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTraceReader(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("zero-N shape accepted")
	}
}

func TestTraceWriterValidatesPackets(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Packet{{InputFiber: 5, Wavelength: 0, DestFiber: 0, Duration: 1}}
	if err := tw.WriteSlot(bad); err == nil {
		t.Fatal("out-of-shape packet accepted")
	}
	// The writer is poisoned after an error.
	if err := tw.WriteSlot(nil); err == nil {
		t.Fatal("write after error accepted")
	}
	if _, err := NewTraceWriter(&buf, 0, 2); err == nil {
		t.Fatal("zero shape accepted")
	}

	var buf2 bytes.Buffer
	tw2, err := NewTraceWriter(&buf2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw2.WriteSlot([]Packet{{Duration: 0}}); err == nil {
		t.Fatal("non-positive duration accepted")
	}
	var buf3 bytes.Buffer
	tw3, err := NewTraceWriter(&buf3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw3.WriteSlot([]Packet{{Duration: 1, Priority: -1}}); err == nil {
		t.Fatal("negative priority accepted")
	}
}

func TestCompressedTraceEmptySlots(t *testing.T) {
	data := ctraceBytes(t, make([][]Packet, 10), 3, 3)
	tr, err := OpenTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 10; s++ {
		pkts, err := tr.NextSlot(nil)
		if err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		if len(pkts) != 0 {
			t.Fatalf("slot %d: %d packets in empty trace", s, len(pkts))
		}
	}
	if _, err := tr.NextSlot(nil); err != io.EOF {
		t.Fatalf("end: %v, want io.EOF", err)
	}
}

package traffic

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"slices"
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

// gzipBytes compresses payload, so tests can hand-build trace streams.
func gzipBytes(t testing.TB, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// inShape reports whether p is a packet a trace of shape n×k may hold.
func inShape(p Packet, n, k int) bool {
	return p.InputFiber >= 0 && p.InputFiber < n && p.Wavelength >= 0 && p.Wavelength < k &&
		p.DestFiber >= 0 && p.DestFiber < n && p.Duration >= 1 && p.Priority >= 0
}

// checkShape returns the first slot of tr holding more than N·k packets
// or an out-of-shape packet.
func checkShape(tr *Trace) error {
	for s, pkts := range tr.Slots {
		if len(pkts) > tr.N*tr.K {
			return fmt.Errorf("slot %d holds %d packets, more than N·k=%d", s, len(pkts), tr.N*tr.K)
		}
		for _, p := range pkts {
			if !inShape(p, tr.N, tr.K) {
				return fmt.Errorf("slot %d: out-of-shape packet %+v", s, p)
			}
		}
	}
	return nil
}

// sameTrace returns the first difference between got and want.
func sameTrace(got, want *Trace) error {
	if got.N != want.N || got.K != want.K || len(got.Slots) != len(want.Slots) {
		return fmt.Errorf("shape %dx%d/%d slots, want %dx%d/%d",
			got.N, got.K, len(got.Slots), want.N, want.K, len(want.Slots))
	}
	for s := range want.Slots {
		if !slices.Equal(got.Slots[s], want.Slots[s]) {
			return fmt.Errorf("slot %d: %+v, want %+v", s, got.Slots[s], want.Slots[s])
		}
	}
	return nil
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
				if !inShape(p, cfg.N, cfg.K) {
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

// FuzzReadTrace feeds arbitrary input to the trace decoder, either as a
// whole file or (raw) as the payload inside a valid gzip stream, so the
// fuzzer reaches the varint decoder past the gzip checksum. ReadTrace must
// never panic; a trace it accepts must hold no slot larger than N·k and no
// out-of-shape packet, and must read back unchanged after Trace.Write.
func FuzzReadTrace(f *testing.F) {
	for i, load := range []float64{0, 0.4, 1} {
		cfg := Config{N: 2 + i, K: 3, Seed: uint64(i) + 1, Hold: HoldingTime{Mean: 2}}
		base, err := NewBernoulli(cfg, load)
		if err != nil {
			f.Fatal(err)
		}
		gen, err := WithPriorities(base, []float64{0.5, 0.5}, cfg.Seed)
		if err != nil {
			f.Fatal(err)
		}
		tr, err := Record(gen, cfg, 6)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			f.Fatal(err)
		}
		gz, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			f.Fatal(err)
		}
		payload, err := io.ReadAll(gz)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), false)
		f.Add(payload, true)
	}
	f.Add([]byte("not a trace"), false)
	f.Fuzz(func(t *testing.T, data []byte, raw bool) {
		if raw {
			data = gzipBytes(t, data)
		}
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := checkShape(tr); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("re-encoding an accepted trace: %v", err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("reading a re-encoded trace: %v", err)
		}
		if err := sameTrace(back, tr); err != nil {
			t.Fatal(err)
		}
	})
}

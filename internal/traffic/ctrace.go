package traffic

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The trace file format. It streams: a TraceWriter or TraceReader holds
// one slot at a time, so multi-gigaslot soak traces cost constant memory,
// and Trace.Write/ReadTrace are loops over them for traces that fit in
// memory:
//
//	gzip(
//	  "WDT2" | uvarint N | uvarint K |
//	  per slot: uvarint count+1 | count × packet |   (count+1 = 0 never occurs;
//	  uvarint 0 |                                     0 terminates the slots)
//	  uvarint slots | uvarint totalPackets )          footer cross-check
//
// Each packet is: zigzag-varint delta of its input channel index
// (InputFiber·k + Wavelength) from the previous packet in the slot, then
// uvarint DestFiber, uvarint Duration−1, uvarint Priority. Generators emit
// packets in ascending channel order, so the deltas are small and gzip
// squeezes the stream to ~1 byte/packet on typical workloads. Slot numbers
// are implicit (the reader stamps them sequentially).
var ctraceMagic = [4]byte{'W', 'D', 'T', '2'}

// TraceWriter streams a compressed trace. Write slots in order and Close
// to emit the footer; a trace without Close is detectably truncated.
type TraceWriter struct {
	gz    *gzip.Writer
	bw    *bufio.Writer
	n, k  int
	slots uint64
	total uint64
	buf   []byte
	err   error
}

// NewTraceWriter starts a compressed trace with the given shape on w.
func NewTraceWriter(w io.Writer, n, k int) (*TraceWriter, error) {
	if n <= 0 || k <= 0 {
		return nil, fmt.Errorf("traffic: invalid trace shape N=%d k=%d", n, k)
	}
	gz := gzip.NewWriter(w)
	bw := bufio.NewWriter(gz)
	tw := &TraceWriter{gz: gz, bw: bw, n: n, k: k, buf: make([]byte, 0, 64)}
	tw.buf = append(tw.buf, ctraceMagic[:]...)
	tw.buf = binary.AppendUvarint(tw.buf, uint64(n))
	tw.buf = binary.AppendUvarint(tw.buf, uint64(k))
	if _, err := bw.Write(tw.buf); err != nil {
		return nil, fmt.Errorf("traffic: writing trace header: %w", err)
	}
	return tw, nil
}

// WriteSlot appends one slot's packets to the trace.
func (tw *TraceWriter) WriteSlot(pkts []Packet) error {
	if tw.err != nil {
		return tw.err
	}
	tw.buf = binary.AppendUvarint(tw.buf[:0], uint64(len(pkts))+1)
	prev := int64(0)
	for _, p := range pkts {
		if p.InputFiber < 0 || p.InputFiber >= tw.n || p.DestFiber < 0 || p.DestFiber >= tw.n ||
			p.Wavelength < 0 || p.Wavelength >= tw.k || p.Duration < 1 || p.Priority < 0 {
			tw.err = fmt.Errorf("traffic: trace packet outside N=%d k=%d (or duration < 1, priority < 0): %+v",
				tw.n, tw.k, p)
			return tw.err
		}
		ch := int64(p.InputFiber*tw.k + p.Wavelength)
		tw.buf = binary.AppendVarint(tw.buf, ch-prev)
		prev = ch
		tw.buf = binary.AppendUvarint(tw.buf, uint64(p.DestFiber))
		tw.buf = binary.AppendUvarint(tw.buf, uint64(p.Duration-1))
		tw.buf = binary.AppendUvarint(tw.buf, uint64(p.Priority))
	}
	if _, err := tw.bw.Write(tw.buf); err != nil {
		tw.err = fmt.Errorf("traffic: writing trace slot: %w", err)
		return tw.err
	}
	tw.slots++
	tw.total += uint64(len(pkts))
	return nil
}

// Close terminates the slot stream, writes the footer and flushes the
// compressor. The underlying writer is not closed.
func (tw *TraceWriter) Close() error {
	if tw.err != nil {
		return tw.err
	}
	tw.buf = binary.AppendUvarint(tw.buf[:0], 0)
	tw.buf = binary.AppendUvarint(tw.buf, tw.slots)
	tw.buf = binary.AppendUvarint(tw.buf, tw.total)
	if _, err := tw.bw.Write(tw.buf); err != nil {
		return fmt.Errorf("traffic: writing trace footer: %w", err)
	}
	if err := tw.bw.Flush(); err != nil {
		return fmt.Errorf("traffic: flushing trace: %w", err)
	}
	if err := tw.gz.Close(); err != nil {
		return fmt.Errorf("traffic: closing trace compressor: %w", err)
	}
	return nil
}

// TraceReader streams a compressed trace written by TraceWriter.
type TraceReader struct {
	gz    *gzip.Reader
	br    *bufio.Reader
	n, k  int
	slots uint64 // slots read so far
	total uint64 // packets read so far
	done  bool
	err   error
}

// OpenTraceReader validates the header and positions the reader at the
// first slot.
func OpenTraceReader(r io.Reader) (*TraceReader, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("traffic: opening trace: %w", err)
	}
	br := bufio.NewReader(gz)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("traffic: reading trace magic: %w", err)
	}
	if magic != ctraceMagic {
		return nil, fmt.Errorf("traffic: bad trace magic %q", magic[:])
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("traffic: reading trace N: %w", err)
	}
	k, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("traffic: reading trace k: %w", err)
	}
	if n == 0 || n > 1<<20 || k == 0 || k > 1<<20 {
		return nil, fmt.Errorf("traffic: corrupt trace shape N=%d k=%d", n, k)
	}
	return &TraceReader{gz: gz, br: br, n: int(n), k: int(k)}, nil
}

// N returns the trace's fiber count.
func (tr *TraceReader) N() int { return tr.n }

// K returns the trace's wavelengths per fiber.
func (tr *TraceReader) K() int { return tr.k }

// Slots reports the slots decoded so far (the full count once NextSlot
// has returned io.EOF).
func (tr *TraceReader) Slots() int { return int(tr.slots) }

// Err returns the first decoding error (nil on a clean stream; io.EOF is
// not recorded).
func (tr *TraceReader) Err() error { return tr.err }

func (tr *TraceReader) fail(err error) error {
	tr.err = err
	return err
}

// uvarint reads one unsigned field, failing the reader when it cannot be
// read or exceeds max. Once the reader has failed it reads nothing.
func (tr *TraceReader) uvarint(what string, max uint64) uint64 {
	if tr.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(tr.br)
	switch {
	case err != nil:
		tr.err = fmt.Errorf("traffic: reading trace slot %d %s: %w", tr.slots, what, err)
	case v > max:
		tr.err = fmt.Errorf("traffic: trace slot %d: %s %d out of range", tr.slots, what, v)
	}
	return v
}

// NextSlot decodes the next slot's packets, appending to dst. It returns
// io.EOF after the last slot — having verified the footer — and an error
// on any corruption. Slot numbers are stamped sequentially from 0.
func (tr *TraceReader) NextSlot(dst []Packet) ([]Packet, error) {
	if tr.err != nil {
		return dst, tr.err
	}
	if tr.done {
		return dst, io.EOF
	}
	channels := int64(tr.n) * int64(tr.k)
	cnt := tr.uvarint("packet count", uint64(channels)+1)
	if tr.err != nil {
		return dst, tr.err
	}
	if cnt == 0 {
		return dst, tr.end()
	}
	prev := int64(0)
	for i := uint64(0); i < cnt-1; i++ {
		delta, err := binary.ReadVarint(tr.br)
		if err != nil {
			return dst, tr.fail(fmt.Errorf("traffic: reading trace slot %d packet %d: %w", tr.slots, i, err))
		}
		ch := prev + delta
		if ch < 0 || ch >= channels {
			return dst, tr.fail(fmt.Errorf("traffic: trace slot %d packet %d: channel %d out of range", tr.slots, i, ch))
		}
		prev = ch
		dest := tr.uvarint("dest", uint64(tr.n)-1)
		dur := tr.uvarint("duration", 1<<32)
		prio := tr.uvarint("priority", 1<<16)
		if tr.err != nil {
			return dst, tr.err
		}
		dst = append(dst, Packet{
			InputFiber: int(ch) / tr.k,
			Wavelength: int(ch) % tr.k,
			DestFiber:  int(dest),
			Duration:   int(dur) + 1,
			Slot:       int(tr.slots),
			Priority:   int(prio),
		})
	}
	tr.slots++
	tr.total += cnt - 1
	return dst, nil
}

// end checks the footer that follows the slot terminator against the
// stream, then that the stream ends there, and returns io.EOF.
func (tr *TraceReader) end() error {
	slots := tr.uvarint("footer slot count", math.MaxUint64)
	total := tr.uvarint("footer packet count", math.MaxUint64)
	if tr.err != nil {
		return tr.err
	}
	if slots != tr.slots || total != tr.total {
		return tr.fail(fmt.Errorf("traffic: trace footer mismatch: footer %d slots/%d packets, stream %d/%d",
			slots, total, tr.slots, tr.total))
	}
	// Read past the footer so the decompressor verifies the gzip trailer
	// (CRC and length): a trace truncated inside the trailer must fail
	// here, not read cleanly.
	switch _, err := tr.br.ReadByte(); err {
	case io.EOF:
	case nil:
		return tr.fail(fmt.Errorf("traffic: trailing data after trace footer"))
	default:
		return tr.fail(fmt.Errorf("traffic: verifying trace trailer: %w", err))
	}
	tr.done = true
	return io.EOF
}

// Close releases the decompressor. The underlying reader is not closed.
func (tr *TraceReader) Close() error { return tr.gz.Close() }

// Generator adapts the reader to the Generator interface for replay
// through Switch.Run: slots must be consumed sequentially from the
// reader's current position. Past the end of the trace (or after a decode
// error, retrievable via Err) it yields empty slots.
func (tr *TraceReader) Generator() Generator { return &ctraceReplayer{tr: tr} }

type ctraceReplayer struct {
	tr   *TraceReader
	next int
}

func (r *ctraceReplayer) Name() string {
	return fmt.Sprintf("ctrace(N=%d,k=%d)", r.tr.n, r.tr.k)
}

func (r *ctraceReplayer) Generate(slot int, dst []Packet) []Packet {
	if slot != r.next {
		r.tr.fail(fmt.Errorf("traffic: trace replay is sequential: got slot %d, want %d", slot, r.next))
		return dst
	}
	r.next++
	out, err := r.tr.NextSlot(dst)
	if err != nil {
		return dst
	}
	return out
}

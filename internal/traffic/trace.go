package traffic

import (
	"fmt"
	"io"
)

// Trace is a recorded workload: per-slot packet lists that can be replayed
// through the simulator. Traces make experiments repeatable across
// scheduler variants — every variant sees byte-identical arrivals.
type Trace struct {
	N, K  int
	Slots [][]Packet
}

// Record runs gen for slots time slots and captures the arrivals.
func Record(gen Generator, cfg Config, slots int) (*Trace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if slots < 0 {
		return nil, fmt.Errorf("traffic: negative slot count %d", slots)
	}
	tr := &Trace{N: cfg.N, K: cfg.K, Slots: make([][]Packet, slots)}
	for s := 0; s < slots; s++ {
		tr.Slots[s] = gen.Generate(s, nil)
	}
	return tr, nil
}

// NumPackets counts the packets in the trace.
func (t *Trace) NumPackets() int {
	n := 0
	for _, s := range t.Slots {
		n += len(s)
	}
	return n
}

// Replay exposes the trace as a Generator. Slots beyond the recorded range
// are empty.
func (t *Trace) Replay() Generator { return &replayer{t} }

type replayer struct{ t *Trace }

func (r *replayer) Name() string { return fmt.Sprintf("trace(%d slots)", len(r.t.Slots)) }

func (r *replayer) Generate(slot int, dst []Packet) []Packet {
	if slot < 0 || slot >= len(r.t.Slots) {
		return dst
	}
	return append(dst, r.t.Slots[slot]...)
}

// Write serializes the trace in the streaming format (see TraceWriter),
// rejecting any packet outside the trace's shape. Packet Slot fields are
// not stored: ReadTrace stamps each packet with its slot's index, as
// Record's generators do.
func (t *Trace) Write(w io.Writer) error {
	tw, err := NewTraceWriter(w, t.N, t.K)
	if err != nil {
		return err
	}
	for _, pkts := range t.Slots {
		if err := tw.WriteSlot(pkts); err != nil {
			return err
		}
	}
	return tw.Close()
}

// ReadTrace loads a whole trace written by Write or a TraceWriter into
// memory. Every packet it returns lies within the trace's shape.
func ReadTrace(r io.Reader) (*Trace, error) {
	tr, err := OpenTraceReader(r)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	t := &Trace{N: tr.N(), K: tr.K()}
	for {
		pkts, err := tr.NextSlot(nil)
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Slots = append(t.Slots, pkts)
	}
}

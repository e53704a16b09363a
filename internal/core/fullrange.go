package core

import (
	"fmt"

	"wdmsched/internal/wavelength"
)

// FullRange is the trivial exact scheduler for full range wavelength
// conversion (paper Section I): every request can reach every channel, so
// requests are indistinguishable in the wavelength domain — if no more than
// the number of available channels arrived, grant all; otherwise grant any
// channel-count-sized subset.
type FullRange struct {
	conv      wavelength.Conversion
	remaining []int
	mask      masker
}

// NewFullRange builds the scheduler. conv must be full range: either Kind
// Full, or a circular model whose degree spans the whole ring.
func NewFullRange(conv wavelength.Conversion) (*FullRange, error) {
	if !conv.IsFullRange() {
		return nil, fmt.Errorf("core: FullRange requires full range conversion, have %v", conv)
	}
	return &FullRange{conv: conv, remaining: make([]int, conv.K()), mask: newMasker(conv.K())}, nil
}

// Name implements Scheduler.
func (s *FullRange) Name() string { return "full-range" }

// Conversion implements Scheduler.
func (s *FullRange) Conversion() wavelength.Conversion { return s.conv }

// Schedule implements Scheduler.
func (s *FullRange) Schedule(count []int, occupied []bool, res *Result) {
	checkInput(s.conv, count, occupied, res)
	res.Reset()
	fullRangeInto(s.conv, count, occupied, res)
}

// ScheduleMasked implements Scheduler. Under faults a "full range" fiber
// is no longer interchangeable — converter-failed channels accept only
// their own wavelength — but the pre-grant reduction keeps the residual
// instance trivial: any wavelength fits any remaining healthy channel.
func (s *FullRange) ScheduleMasked(count []int, occupied []bool, mask ChannelMask, res *Result) {
	cnt, occ := s.mask.apply(count, occupied, mask)
	s.Schedule(cnt, occ, res)
	s.mask.finish(res)
}

// fullRangeInto fills res, channel index included, by assigning pending
// wavelengths (ascending) to available channels (ascending). res must be
// freshly Reset.
func fullRangeInto(conv wavelength.Conversion, count []int, occupied []bool, res *Result) {
	k := conv.K()
	w := 0
	remaining := 0
	if k > 0 {
		remaining = count[0]
	}
	for b := 0; b < k; b++ {
		if occupied != nil && occupied[b] {
			continue
		}
		for w < k && remaining == 0 {
			w++
			if w < k {
				remaining = count[w]
			}
		}
		if w == k {
			break
		}
		remaining--
		res.ByOutput[b] = w
		res.Granted[w]++
		res.Size++
	}
	res.IndexChannels()
}

var _ Scheduler = (*FullRange)(nil)

// Package wire is the one frame layer under the repository's two network
// protocols: the cluster runtime's controller↔node link (internal/cluster)
// and the grant service's client↔server link (internal/grant). Both speak
// the same length-prefixed envelope, big-endian:
//
//	magic   uint16  protocol magic
//	version uint8   protocol version
//	type    uint8   message type
//	length  uint32  payload byte count
//	payload [length]byte
//	crc     uint32  IEEE CRC-32 of the payload
//
// A Proto value names one protocol: its magic, version, payload cap and
// error prefix. The two protocols use distinct magics, so neither socket
// can be mistaken for the other. A frame whose version byte differs from
// the receiver's is rejected with a *VersionError naming both versions;
// there is no downgrade path.
//
// Encoding and decoding are allocation-free in steady state: payloads are
// built by the append-style Put* encoders into reused buffers, and decoded
// by a Reader cursor over the connection's reused read buffer.
package wire

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
)

const (
	// headerLen is the envelope header size: magic, version, type, length.
	headerLen = 8
	// crcLen is the size of the trailing payload checksum.
	crcLen = 4
)

// Proto describes one protocol spoken over the envelope.
type Proto struct {
	Name       string   // error prefix, e.g. "cluster"
	Magic      uint16   // first two bytes of every frame
	Version    uint8    // the version this build speaks
	MaxPayload int      // sanity cap against corrupt length prefixes
	Types      []string // message type names for errors, indexed by type
}

// TypeName names message type mt for error text.
func (p *Proto) TypeName(mt uint8) string {
	if int(mt) < len(p.Types) && p.Types[mt] != "" {
		return p.Types[mt]
	}
	return fmt.Sprintf("msgType(%d)", mt)
}

// AppendFrame appends one framed message (header, payload, CRC) to dst
// and returns the extended slice.
func (p *Proto) AppendFrame(dst []byte, mt uint8, payload []byte) []byte {
	dst = PutU16(dst, p.Magic)
	dst = append(dst, p.Version, mt)
	dst = PutU32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return PutU32(dst, crc32.ChecksumIEEE(payload))
}

// VersionError reports a wire-protocol version mismatch with a peer.
type VersionError struct {
	Proto string // protocol name
	Peer  uint8  // version byte the peer sent
	Local uint8  // version this build speaks
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("%s: wire protocol version mismatch: peer speaks v%d, this build speaks v%d",
		e.Proto, e.Peer, e.Local)
}

// SplitAddr maps a listen/dial address to a Go network/address pair:
// anything with a "unix:" prefix or containing a path separator is a
// unix socket; everything else is TCP host:port.
func SplitAddr(addr string) (network, address string) {
	if rest, ok := strings.CutPrefix(addr, "unix:"); ok {
		return "unix", rest
	}
	if strings.Contains(addr, "/") {
		return "unix", addr
	}
	return "tcp", addr
}

// Append-style big-endian encoders. All return the extended slice so a
// hot path stays a chain of appends into one reused buffer.

func PutU16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }

func PutU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func PutU64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func PutI16(b []byte, v int16) []byte { return PutU16(b, uint16(v)) }

func PutI64(b []byte, v int64) []byte { return PutU64(b, uint64(v)) }

func PutF64(b []byte, v float64) []byte { return PutU64(b, math.Float64bits(v)) }

// PutString appends a u16 length prefix and the string, truncated to
// 65535 bytes.
func PutString(b []byte, s string) []byte {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	b = PutU16(b, uint16(len(s)))
	return append(b, s...)
}

// PatchU64 overwrites 8 bytes at off in an already-encoded payload, to
// stamp a late timestamp without re-encoding the frame.
func PatchU64(b []byte, off int, v uint64) {
	_ = b[off+7]
	b[off] = byte(v >> 56)
	b[off+1] = byte(v >> 48)
	b[off+2] = byte(v >> 40)
	b[off+3] = byte(v >> 32)
	b[off+4] = byte(v >> 24)
	b[off+5] = byte(v >> 16)
	b[off+6] = byte(v >> 8)
	b[off+7] = byte(v)
}

// errShortPayload is the decode-overrun error a Reader latches.
var errShortPayload = errors.New("wire: truncated payload")

// Reader is a bounds-checked cursor over one frame's payload. The first
// overrun latches Err; later reads return zero values, so decode loops
// can run unguarded and check Err once at the end.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a cursor at the start of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = errShortPayload
	}
}

// Err reports the latched overrun, if any.
func (r *Reader) Err() error { return r.err }

// Rem reports the unread byte count.
func (r *Reader) Rem() int { return len(r.b) - r.off }

func (r *Reader) U8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *Reader) U16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := uint16(r.b[r.off])<<8 | uint16(r.b[r.off+1])
	r.off += 2
	return v
}

func (r *Reader) U32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	b := r.b[r.off:]
	r.off += 4
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func (r *Reader) U64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	b := r.b[r.off:]
	r.off += 8
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

func (r *Reader) I16() int16 { return int16(r.U16()) }

func (r *Reader) I64() int64 { return int64(r.U64()) }

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes returns the next n payload bytes without copying; the slice is
// valid only until the underlying read buffer is reused.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || r.err != nil || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// Str decodes a u16-length-prefixed string (allocates).
func (r *Reader) Str() string { return string(r.Bytes(int(r.U16()))) }

package policy

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"mpclogic/internal/rel"
)

// Durable encoding for StableStore: the same canonical fragment format
// the MPC transports ship (rel.EncodeInstance), framed per node with a
// length prefix, behind an opaque meta section for what the owner must
// restore beside the fragments. This is the module's only durable
// format, and a log (log.go) its only container: every durable file is
// a sequence of such images, appended by Log or landed whole by
// WriteLog, and parsed by ReadLog.
//
// Format (integers little-endian):
//
//	store := magic u32 | version u16 | metaLen u32 | meta bytes
//	       | nodes u32 | nodes × (fragLen u32 | fragment bytes)
//	       | crc u32
//
// where each fragment is a canonical rel instance encoding and the
// trailing crc is CRC-32C over every preceding byte, meta included.
// The encoder builds the image in one buffer sized up front; the
// decoder reads it in place, from the bytes the caller holds, and
// copies into the store it returns only what it keeps. Decoding is
// strict — bad magic/version, truncation, oversized prefixes, trailing
// bytes, and checksum mismatches are errors, never panics — because
// checkpoint files outlive the process that wrote them and may arrive
// damaged.

const (
	storeMagic uint32 = 0x53504d43 // "CMPS" little-endian
	// StoreVersion is the checkpoint format version; bump on layout
	// changes so stale files fail loudly instead of misparsing.
	// Version 2 added the trailing CRC-32C checksum, 3 the meta section.
	StoreVersion uint16 = 3
	// TempSuffix is what WriteLog appends to the target's name while
	// the records are written; no durable file's own name ends in it.
	TempSuffix = ".tmp"
)

// storeCRCTable is the Castagnoli polynomial table shared by encoder
// and decoder.
var storeCRCTable = crc32.MakeTable(crc32.Castagnoli)

// appendStore appends s's image — the bytes EncodeStore writes — to buf
// and returns the extended slice, growing it at most once.
func appendStore(buf []byte, s *StableStore) []byte {
	size := 4 + 2 + 4 + len(s.meta) + 4 + 4
	for _, part := range s.parts {
		size += 4 + rel.EncodedSize(part)
	}
	buf = slices.Grow(buf, size)
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, storeMagic)
	buf = binary.LittleEndian.AppendUint16(buf, StoreVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.meta)))
	buf = append(buf, s.meta...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.parts)))
	for _, part := range s.parts {
		at := len(buf)
		buf = rel.AppendInstance(append(buf, 0, 0, 0, 0), part)
		binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], storeCRCTable))
}

// EncodeStore writes the store's meta and durable fragments to w,
// followed by a CRC-32C of everything written, in one write.
func EncodeStore(w io.Writer, s *StableStore) error {
	if _, err := w.Write(appendStore(nil, s)); err != nil {
		return fmt.Errorf("policy: encoding store: %w", err)
	}
	return nil
}

// DecodeStore reads r to EOF and decodes what it held with DecodeImage,
// so a truncated, corrupted, or padded checkpoint file is an error.
func DecodeStore(r io.Reader) (*StableStore, error) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("policy: reading store: %w", err)
	}
	return DecodeImage(buf.Bytes())
}

// DecodeImage decodes img, which must be exactly one store image: it
// verifies the trailing checksum over everything before it and refuses
// bytes past it. It reads img in place and keeps none of it — the meta
// section is copied and each fragment decoded into a fresh instance —
// so the caller may reuse or drop img as soon as it returns. The framing
// and the checksum are checked before any fragment is decoded, so a
// damaged image costs a walk of its length prefixes and one CRC, not a
// decode of every fragment ahead of the damage.
func DecodeImage(img []byte) (*StableStore, error) {
	off := 0
	// take returns the next n bytes and steps past them, or reports
	// false when fewer remain.
	take := func(n uint32) ([]byte, bool) {
		if uint64(n) > uint64(len(img)-off) {
			return nil, false
		}
		off += int(n)
		return img[off-int(n) : off], true
	}
	hdr, ok := take(10)
	if !ok {
		return nil, fmt.Errorf("policy: reading store header: %w", io.ErrUnexpectedEOF)
	}
	if magic := binary.LittleEndian.Uint32(hdr[0:]); magic != storeMagic {
		return nil, fmt.Errorf("policy: bad store magic %#x (want %#x)", magic, storeMagic)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != StoreVersion {
		return nil, fmt.Errorf("policy: unsupported store version %d (this decoder speaks %d)", v, StoreVersion)
	}
	metaLen := binary.LittleEndian.Uint32(hdr[6:])
	meta, ok := take(metaLen)
	if !ok {
		return nil, fmt.Errorf("policy: reading store meta: %d bytes declared, %d remain", metaLen, len(img)-off)
	}
	pre, ok := take(4)
	if !ok {
		return nil, fmt.Errorf("policy: reading store node count: %w", io.ErrUnexpectedEOF)
	}
	nodes := binary.LittleEndian.Uint32(pre)
	const maxNodes = 1 << 20 // sanity cap far above any real cluster
	if nodes > maxNodes {
		return nil, fmt.Errorf("policy: store declares %d nodes (cap %d)", nodes, maxNodes)
	}
	// Each node costs at least its 4-byte length prefix, so a count
	// beyond the remaining bytes is corrupt: reject it before it sizes
	// the parts list, or one flipped bit of a small image allocates
	// megabytes.
	if uint64(nodes) > uint64(len(img)-off)/4 {
		return nil, fmt.Errorf("policy: store declares %d nodes but only %d bytes remain", nodes, len(img)-off)
	}
	frags := make([][]byte, nodes)
	for κ := range frags {
		if pre, ok = take(4); !ok {
			return nil, fmt.Errorf("policy: reading node %d length: %w", κ, io.ErrUnexpectedEOF)
		}
		fragLen := binary.LittleEndian.Uint32(pre)
		if frags[κ], ok = take(fragLen); !ok {
			return nil, fmt.Errorf("policy: reading node %d fragment: %d bytes declared, %d remain", κ, fragLen, len(img)-off)
		}
	}
	body := off
	tail, ok := take(4)
	if !ok {
		return nil, fmt.Errorf("policy: reading store checksum: %w", io.ErrUnexpectedEOF)
	}
	if want, got := binary.LittleEndian.Uint32(tail), crc32.Checksum(img[:body], storeCRCTable); want != got {
		return nil, fmt.Errorf("policy: store checksum mismatch (trailer says %#x, body hashes to %#x)", want, got)
	}
	if off != len(img) {
		return nil, fmt.Errorf("policy: trailing bytes after a complete store")
	}
	s := &StableStore{meta: append([]byte(nil), meta...), parts: make([]*rel.Instance, nodes)}
	for κ, frag := range frags {
		inst, err := rel.DecodeInstance(frag)
		if err != nil {
			return nil, fmt.Errorf("policy: node %d fragment: %w", κ, err)
		}
		s.parts[κ] = inst
	}
	return s, nil
}

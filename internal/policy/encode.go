package policy

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"mpclogic/internal/rel"
)

// Durable encoding for StableStore: the same canonical fragment format
// the MPC transports ship (rel.EncodeInstance), framed per node with a
// length prefix, behind an opaque meta section for what the owner must
// restore beside the fragments. This is the module's only durable
// format: every checkpoint and snapshot file is one such image, landed
// by SaveStore and parsed by LoadStore, and by nothing else.
//
// Format (integers little-endian):
//
//	store := magic u32 | version u16 | metaLen u32 | meta bytes
//	       | nodes u32 | nodes × (fragLen u32 | fragment bytes)
//	       | crc u32
//
// where each fragment is a canonical rel instance encoding and the
// trailing crc is CRC-32C over every preceding byte, meta included,
// computed incrementally as the store streams — neither encoder nor
// decoder buffers the image. Decoding is strict — bad magic/version,
// truncation, oversized prefixes, trailing bytes, and checksum
// mismatches are errors, never panics — because checkpoint files
// outlive the process that wrote them and may arrive damaged.

const (
	storeMagic uint32 = 0x53504d43 // "CMPS" little-endian
	// StoreVersion is the checkpoint format version; bump on layout
	// changes so stale files fail loudly instead of misparsing.
	// Version 2 added the trailing CRC-32C checksum, 3 the meta section.
	StoreVersion uint16 = 3
	// TempSuffix is what SaveStore appends to the target's name while
	// the image streams; no durable file's own name ends in it.
	TempSuffix = ".tmp"
)

// storeCRCTable is the Castagnoli polynomial table shared by encoder
// and decoder.
var storeCRCTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeStore writes the store's meta and durable fragments to w,
// followed by a CRC-32C of everything written.
func EncodeStore(w io.Writer, s *StableStore) error {
	digest := crc32.New(storeCRCTable)
	mw := io.MultiWriter(w, digest)
	hdr := binary.LittleEndian.AppendUint32(nil, storeMagic)
	hdr = binary.LittleEndian.AppendUint16(hdr, StoreVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(s.meta)))
	hdr = append(hdr, s.meta...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(s.parts)))
	if _, err := mw.Write(hdr); err != nil {
		return fmt.Errorf("policy: encoding store header: %w", err)
	}
	for κ, part := range s.parts {
		frag := rel.EncodeInstance(part)
		var pre [4]byte
		binary.LittleEndian.PutUint32(pre[:], uint32(len(frag)))
		if _, err := mw.Write(pre[:]); err != nil {
			return fmt.Errorf("policy: encoding node %d length: %w", κ, err)
		}
		if _, err := mw.Write(frag); err != nil {
			return fmt.Errorf("policy: encoding node %d fragment: %w", κ, err)
		}
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], digest.Sum32())
	if _, err := w.Write(tail[:]); err != nil {
		return fmt.Errorf("policy: encoding store checksum: %w", err)
	}
	return nil
}

// readCapped reads a meta or fragment section of declared length n,
// refusing a length above the cap before allocating for it.
func readCapped(r io.Reader, n uint32) ([]byte, error) {
	const maxSection = 1 << 30
	if n > maxSection {
		return nil, fmt.Errorf("%d bytes declared (cap %d)", n, maxSection)
	}
	b := make([]byte, n)
	_, err := io.ReadFull(r, b)
	return b, err
}

// DecodeStore reads a store written by EncodeStore. It consumes
// exactly the encoded bytes, verifies the trailing checksum over
// everything before it, and verifies r is exhausted, so a truncated,
// corrupted, or padded checkpoint file is an error.
func DecodeStore(r io.Reader) (*StableStore, error) {
	digest := crc32.New(storeCRCTable)
	tr := io.TeeReader(r, digest)
	var hdr [10]byte
	if _, err := io.ReadFull(tr, hdr[:]); err != nil {
		return nil, fmt.Errorf("policy: reading store header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(hdr[0:]); magic != storeMagic {
		return nil, fmt.Errorf("policy: bad store magic %#x (want %#x)", magic, storeMagic)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != StoreVersion {
		return nil, fmt.Errorf("policy: unsupported store version %d (this decoder speaks %d)", v, StoreVersion)
	}
	meta, err := readCapped(tr, binary.LittleEndian.Uint32(hdr[6:]))
	if err != nil {
		return nil, fmt.Errorf("policy: reading store meta: %w", err)
	}
	var pre [4]byte
	if _, err := io.ReadFull(tr, pre[:]); err != nil {
		return nil, fmt.Errorf("policy: reading store node count: %w", err)
	}
	nodes := binary.LittleEndian.Uint32(pre[:])
	const maxNodes = 1 << 20 // sanity cap far above any real cluster
	if nodes > maxNodes {
		return nil, fmt.Errorf("policy: store declares %d nodes (cap %d)", nodes, maxNodes)
	}
	s := &StableStore{meta: meta, parts: make([]*rel.Instance, 0, nodes)}
	for κ := uint32(0); κ < nodes; κ++ {
		if _, err := io.ReadFull(tr, pre[:]); err != nil {
			return nil, fmt.Errorf("policy: reading node %d length: %w", κ, err)
		}
		frag, err := readCapped(tr, binary.LittleEndian.Uint32(pre[:]))
		if err != nil {
			return nil, fmt.Errorf("policy: reading node %d fragment: %w", κ, err)
		}
		inst, err := rel.DecodeInstance(frag)
		if err != nil {
			return nil, fmt.Errorf("policy: node %d fragment: %w", κ, err)
		}
		s.parts = append(s.parts, inst)
	}
	// The trailer is read from r directly: it is not part of the
	// digested image.
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("policy: reading store checksum: %w", err)
	}
	if want, got := binary.LittleEndian.Uint32(tail[:]), digest.Sum32(); want != got {
		return nil, fmt.Errorf("policy: store checksum mismatch (trailer says %#x, body hashes to %#x)", want, got)
	}
	var extra [1]byte
	switch n, err := r.Read(extra[:]); {
	case n != 0:
		return nil, fmt.Errorf("policy: trailing bytes after a complete store")
	case err != io.EOF:
		return nil, fmt.Errorf("policy: checking for trailing bytes: %w", err)
	}
	return s, nil
}

// SaveStore lands s's image at path atomically: it streams into
// path+TempSuffix beside the target and is renamed over it, so a reader
// finds the previous image or this one, never part of either. Nothing
// is fsynced: the fault model is process death (SIGKILL), which the
// page cache survives.
func SaveStore(path string, s *StableStore) error {
	f, err := os.Create(path + TempSuffix)
	if err != nil {
		return err
	}
	err = EncodeStore(f, s)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(path+TempSuffix, path)
}

// LoadStore reads the image at path, every DecodeStore check applied. A
// missing file is reported as fs.ErrNotExist (errors.Is).
func LoadStore(path string) (*StableStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read-only; close is best-effort
	s, err := DecodeStore(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

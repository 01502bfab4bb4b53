package rel

// Wire encoding for relation fragments and instances — the byte format
// MPC transports ship between servers and checkpoints spill to disk.
//
// The flat value arena is already serialization-shaped: a relation's
// tuples sit contiguously as arity-strided int64 runs, so encoding
// walks the arena once and emits fixed-width little-endian values with
// no per-tuple allocation, and decoding reads a relation's values in
// one pass into an exact-size arena. (The hash table and cached hashes
// are derived state and intentionally NOT on the wire: a peer cannot
// inject a mismatched hash.) EncodeRoundRobin writes the p round-robin
// shares of an instance the same way, straight from its sorted
// enumeration.
//
// The decoder's duplicate check is strict ascent, then the table. The
// longest strictly ascending prefix of the decoded arena is distinct by
// ascent and becomes the relation with no table, marked ascending, so
// its sorted enumeration is its arena. The first tuple that is not
// above its predecessor builds the table once over the prefix, hashing
// each of its tuples then, and from then on every tuple is hashed,
// inserted, and a duplicate is an error. A share dealt from a sorted
// enumeration is encoded ascending, so it is received as its arena
// alone: no table and no tuple hashed.
//
// Format (all integers little-endian):
//
//	instance  := magic u32 | version u16 | relCount u32 | relation*
//	           | crc u32
//	relation  := nameLen u16 | name bytes | arity u16 | count u32
//	           | count*arity × value u64
//
// The trailing crc is CRC-32C (Castagnoli) over every preceding byte
// of the instance encoding. It is verified AFTER structural parsing:
// struct-level corruption reports the precise malformation, and a
// frame whose structure happens to survive a bit flip is still caught
// by the checksum — CRC-32C detects all burst errors up to 32 bits,
// so no single-bit corruption can be silently accepted.
//
// The encoding is canonical and the codec enforces it both ways:
//
//   - EncodeInstance emits relations in ascending name order, skips
//     empty relations (present but holding no tuple), and emits each
//     relation's tuples in arena (insertion) order.
//   - DecodeInstance rejects any non-canonical input: wrong magic or
//     version, trailing bytes, empty or duplicate or out-of-order
//     relation names, zero tuple counts, and duplicate tuples.
//
// Together these give the round-trip laws the fuzzer pins down:
// Decode(Encode(i)) equals i for every instance, and Encode(Decode(b))
// == b for every accepted byte string. A mutated or truncated frame is
// reported as an error — the decoder must never panic, because frames
// cross process boundaries and a malformed peer must not kill the
// receiver.
import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const (
	// wireMagic identifies an encoded instance ("MPCW" little-endian).
	wireMagic uint32 = 0x5743504d
	// WireVersion is the current format version; decoders reject
	// anything else, so format evolution is explicit. Version 2 added
	// the trailing CRC-32C checksum.
	WireVersion uint16 = 2

	// maxWireArity bounds a decoded relation's arity. The engine's
	// widest tuples are single-digit arity; 4096 leaves headroom while
	// keeping count*arity arithmetic far from overflow.
	maxWireArity = 4096

	// wireCRCLen is the trailing checksum's byte length.
	wireCRCLen = 4
)

// wireCRCTable is the Castagnoli polynomial table shared by encoder
// and decoder.
var wireCRCTable = crc32.MakeTable(crc32.Castagnoli)

// AppendInstance appends the canonical encoding of inst to buf and
// returns the extended slice. The trailing CRC-32C covers exactly the
// bytes this call appended before it.
func AppendInstance(buf []byte, inst *Instance) []byte {
	start := len(buf)
	names := inst.RelationNames()
	buf = appendInstanceHeader(buf, len(names))
	for _, name := range names {
		buf = appendRelation(buf, name, inst.rels[name])
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], wireCRCTable))
}

// EncodeInstance returns the canonical encoding of inst, pre-sizing the
// buffer from the instance's exact wire size.
func EncodeInstance(inst *Instance) []byte {
	return AppendInstance(make([]byte, 0, EncodedSize(inst)), inst)
}

// EncodedSize returns the exact byte length of EncodeInstance(inst).
func EncodedSize(inst *Instance) int {
	n := wireInstanceLen
	for name, r := range inst.rels {
		if r.Len() == 0 {
			continue
		}
		n += wireRelationLen(name) + 8*r.Len()*r.Arity
	}
	return n
}

// wireInstanceLen is the byte length of an instance's fixed fields: its
// header and its checksum.
const wireInstanceLen = 4 + 2 + 4 + wireCRCLen

// wireRelationLen is the byte length of a relation's header.
func wireRelationLen(name string) int { return 2 + len(name) + 2 + 4 }

func appendInstanceHeader(buf []byte, relCount int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, wireMagic)
	buf = binary.LittleEndian.AppendUint16(buf, WireVersion)
	return binary.LittleEndian.AppendUint32(buf, uint32(relCount))
}

func appendRelationHeader(buf []byte, name string, arity, count int) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(arity))
	return binary.LittleEndian.AppendUint32(buf, uint32(count))
}

// appendRelation emits one relation under its instance key (which may
// differ from r.Name after SetRelationAs). The arena is the payload,
// arity-strided runs in insertion order, so it is written in one pass
// with no Tuple materialization.
func appendRelation(buf []byte, name string, r *Relation) []byte {
	buf = appendRelationHeader(buf, name, r.Arity, r.Len())
	for _, v := range r.arena {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

// EncodeRoundRobin returns the encodings of p shares of inst dealt
// round-robin: fact k of inst, in (relation name, Tuples) order, goes
// to share k mod p. It is the encoding of mpc.DealRoundRobin's rule at
// offset 0 — shares[s] is byte for byte EncodeInstance of the instance
// that deal fills for server s, an empty one included — written
// straight from each relation's sorted enumeration (an ascending
// relation's arena, read in place with no enumeration built), with no
// intermediate instance. The first pass counts what each share gets of
// each relation and sizes its buffer exactly; the second writes the
// headers, deals the values and closes each share with its checksum.
func EncodeRoundRobin(inst *Instance, p int) [][]byte {
	names := inst.RelationNames()
	// dealt[i*p+s] is how many tuples of relation names[i] share s gets:
	// the relation's tuples are dealt from global position k0, so its
	// j-th lands on (k0+j) mod p, and s gets the j ≡ s−k0 (mod p).
	dealt := make([]int, len(names)*p)
	size := make([]int, p)
	relCount := make([]int, p)
	for s := range p {
		size[s] = wireInstanceLen
	}
	k0 := 0
	for i, name := range names {
		r := inst.rels[name]
		for s := range p {
			d := (s - k0%p + p) % p
			if d >= r.count {
				continue
			}
			c := (r.count-1-d)/p + 1
			dealt[i*p+s] = c
			size[s] += wireRelationLen(name) + 8*c*r.Arity
			relCount[s]++
		}
		k0 += r.count
	}
	// Each share is written in place through off, its fill mark, so
	// dealing a value stores no slice header.
	shares := make([][]byte, p)
	off := make([]int, p)
	for s := range p {
		shares[s] = make([]byte, size[s])
		off[s] = len(appendInstanceHeader(shares[s][:0], relCount[s]))
	}
	s := 0
	for i, name := range names {
		r := inst.rels[name]
		for h := range p {
			if c := dealt[i*p+h]; c > 0 {
				off[h] += len(appendRelationHeader(shares[h][off[h]:off[h]], name, r.Arity, c))
			}
		}
		put := func(t Tuple) bool {
			b := shares[s][off[s] : off[s]+8*len(t)]
			for j, v := range t {
				binary.LittleEndian.PutUint64(b[8*j:], uint64(v))
			}
			off[s] += len(b)
			if s++; s == p {
				s = 0
			}
			return true
		}
		if r.ascending {
			r.Each(put) // the arena is the sorted enumeration: none is built
		} else {
			for _, t := range r.Tuples() {
				put(t)
			}
		}
	}
	for h, b := range shares {
		binary.LittleEndian.PutUint32(b[off[h]:], crc32.Checksum(b[:off[h]], wireCRCTable))
	}
	return shares
}

// wireReader is a bounds-checked cursor over an encoded frame. Every
// read validates the remaining length first, so truncated or mutated
// input surfaces as an error — never a slice panic.
type wireReader struct {
	data []byte
	off  int
}

func (w *wireReader) remaining() int { return len(w.data) - w.off }

func (w *wireReader) u16() (uint16, error) {
	if w.remaining() < 2 {
		return 0, fmt.Errorf("rel: truncated frame at offset %d: need 2 bytes, have %d", w.off, w.remaining())
	}
	v := binary.LittleEndian.Uint16(w.data[w.off:])
	w.off += 2
	return v, nil
}

func (w *wireReader) u32() (uint32, error) {
	if w.remaining() < 4 {
		return 0, fmt.Errorf("rel: truncated frame at offset %d: need 4 bytes, have %d", w.off, w.remaining())
	}
	v := binary.LittleEndian.Uint32(w.data[w.off:])
	w.off += 4
	return v, nil
}

func (w *wireReader) bytes(n int) ([]byte, error) {
	if w.remaining() < n {
		return nil, fmt.Errorf("rel: truncated frame at offset %d: need %d bytes, have %d", w.off, n, w.remaining())
	}
	b := w.data[w.off : w.off+n]
	w.off += n
	return b, nil
}

// DecodeInstance decodes a canonical instance encoding, verifying
// structure strictly: it errors on bad magic or version, non-ascending
// or empty relation names, zero counts, duplicate tuples, truncation,
// trailing bytes, and checksum mismatches. It never panics on
// malformed input.
func DecodeInstance(data []byte) (*Instance, error) {
	inst := NewInstance()
	if err := DecodeInstanceInto(inst, data); err != nil {
		return nil, err
	}
	return inst, nil
}

// ScanInstance reads the relation headers of a canonical instance
// encoding — name, arity and tuple count, in order, passed to fn —
// without decoding a value or verifying the checksum: what a merge of
// several encodings needs to size its relations before it decodes them
// (DecodeInstanceInto). A structural error is DecodeInstance's.
func ScanInstance(data []byte, fn func(name string, arity, count int)) error {
	return walkInstance(data, false, func(name string, arity, count int, _ []byte) error {
		fn(name, arity, count)
		return nil
	})
}

// DecodeInstanceInto decodes a canonical instance encoding into dst,
// the merge of the fragments decoded before it, with DecodeInstance's
// checks. A relation dst lacks is decoded as DecodeInstance decodes it;
// one dst holds — pre-sized by the caller, or it grows — gets the
// encoding's tuples written straight into its arena, each one dst lacks
// landing once, in order, as UnionWith of the decoded relation would
// land it: into an empty relation with no table the ascending run is
// appended, proven distinct by ascent, and any other tuple asks the
// table. A tuple the encoding carries twice is its canonical-form
// error, whether or not an earlier fragment carried it too. On an error
// dst holds part of the encoding.
func DecodeInstanceInto(dst *Instance, data []byte) error {
	return walkInstance(data, true, func(name string, arity, count int, vals []byte) error {
		r := dst.rels[name]
		switch {
		case r == nil:
			r, err := decodeRelation(name, arity, count, vals)
			if err == nil {
				dst.rels[name] = r
			}
			return err
		case r.Arity != arity:
			return fmt.Errorf("rel: relation %q has wire arity %d, merged into arity %d", name, arity, r.Arity)
		}
		return r.decodeAppend(vals, count)
	})
}

// walkInstance reads an instance encoding: its header, then each
// relation's header in order — the names must ascend — handing fn the
// relation's name, arity, tuple count and values; and, when sealed, the
// checksum trailer.
func walkInstance(data []byte, sealed bool, fn func(name string, arity, count int, vals []byte) error) error {
	w := &wireReader{data: data}
	magic, err := w.u32()
	if err != nil {
		return err
	}
	if magic != wireMagic {
		return fmt.Errorf("rel: bad frame magic %#x (want %#x)", magic, wireMagic)
	}
	version, err := w.u16()
	if err != nil {
		return err
	}
	if version != WireVersion {
		return fmt.Errorf("rel: unsupported wire version %d (this decoder speaks %d)", version, WireVersion)
	}
	relCount, err := w.u32()
	if err != nil {
		return err
	}
	// Each relation costs at least its fixed header (2+2+4 bytes) plus
	// one tuple, so a relCount beyond the remaining bytes is corrupt.
	if int64(relCount) > int64(w.remaining()/8)+1 {
		return fmt.Errorf("rel: frame declares %d relations but only %d bytes remain", relCount, w.remaining())
	}
	prevName := ""
	for k := uint32(0); k < relCount; k++ {
		name, arity, count, vals, err := w.relation()
		if err != nil {
			return err
		}
		if k > 0 && name <= prevName {
			return fmt.Errorf("rel: relation %q out of order after %q (canonical encoding is name-ascending)", name, prevName)
		}
		prevName = name
		if err := fn(name, arity, count, vals); err != nil {
			return err
		}
	}
	if !sealed {
		return nil
	}
	switch {
	case w.remaining() < wireCRCLen:
		return fmt.Errorf("rel: truncated frame: %d bytes remain where the %d-byte checksum belongs", w.remaining(), wireCRCLen)
	case w.remaining() > wireCRCLen:
		return fmt.Errorf("rel: %d trailing bytes after a complete instance", w.remaining()-wireCRCLen)
	}
	want := binary.LittleEndian.Uint32(w.data[w.off:])
	if got := crc32.Checksum(w.data[:w.off], wireCRCTable); got != want {
		return fmt.Errorf("rel: frame checksum mismatch (trailer says %#x, body hashes to %#x)", want, got)
	}
	return nil
}

// relation reads a relation's header and its values.
func (w *wireReader) relation() (name string, arity, count int, vals []byte, err error) {
	nameLen, err := w.u16()
	if err != nil {
		return "", 0, 0, nil, err
	}
	if nameLen == 0 {
		return "", 0, 0, nil, fmt.Errorf("rel: empty relation name at offset %d", w.off)
	}
	nameBytes, err := w.bytes(int(nameLen))
	if err != nil {
		return "", 0, 0, nil, err
	}
	name = string(nameBytes)
	arity16, err := w.u16()
	if err != nil {
		return "", 0, 0, nil, err
	}
	arity = int(arity16)
	if arity == 0 || arity > maxWireArity {
		return "", 0, 0, nil, fmt.Errorf("rel: relation %q has wire arity %d (want 1..%d)", name, arity, maxWireArity)
	}
	count32, err := w.u32()
	if err != nil {
		return "", 0, 0, nil, err
	}
	count = int(count32)
	if count == 0 {
		return "", 0, 0, nil, fmt.Errorf("rel: relation %q encoded with zero tuples (canonical encoding skips empty relations)", name)
	}
	// The payload length check caps what a decoder allocates for the
	// values at the frame size: a frame cannot make it allocate more
	// value slots than it carries bytes.
	need := count * arity * 8
	if w.remaining() < need {
		return "", 0, 0, nil, fmt.Errorf("rel: relation %q declares %d×%d values (%d bytes) but only %d remain",
			name, count, arity, need, w.remaining())
	}
	vals = w.data[w.off : w.off+need]
	w.off += need
	return name, arity, count, vals, nil
}

// decodeRelation decodes a relation's count tuples of arity values,
// payload holding exactly their bytes.
func decodeRelation(name string, arity, count int, payload []byte) (*Relation, error) {
	// One pass fills the arena. The payload holds exactly 8 bytes a
	// value; the length test stands in for the bounds checks, so the
	// loop body has none.
	vals := make([]Value, count*arity)
	for j := range vals {
		if len(payload) < 8 {
			break
		}
		vals[j] = Value(binary.LittleEndian.Uint64(payload))
		payload = payload[8:]
	}
	// The longest strictly ascending prefix is distinct by ascent: it
	// becomes the relation as it stands, with no table and no hash.
	run := 1
	for run < count && Tuple(vals[run*arity:(run+1)*arity]).Compare(vals[(run-1)*arity:run*arity]) > 0 {
		run++
	}
	r := &Relation{Name: name, Arity: arity, arena: vals[:run*arity], count: run, ascending: true}
	if vouchCheck {
		checkStored(r, "DecodeInstance")
	}
	// The first tuple that is not above its predecessor builds the table
	// over the run, and from then on the table checks. Each tuple is
	// inserted from where it already lies, so its copy into the arena
	// moves nothing.
	for i := run; i < count; i++ {
		t := Tuple(vals[i*arity : (i+1)*arity])
		if !r.insert(tableHash(t), t) {
			return nil, fmt.Errorf("rel: relation %q carries duplicate tuple %v (canonical encoding is duplicate-free)", name, t)
		}
	}
	return r, nil
}

// decodeAppend writes count tuples of encoded values into r, as
// DecodeInstanceInto describes. Each is read into the arena's spare
// room, where a push or an insert finds it already in place.
func (r *Relation) decodeAppend(payload []byte, count int) error {
	r.Reserve(count)
	start := r.count
	run := r.count == 0 && r.slots == nil // the ascending run goes in with no table
	var met map[int32]bool                // tuples of earlier fragments this one carried
	for range count {
		off := r.count * r.Arity
		t := Tuple(r.arena[off : off+r.Arity : off+r.Arity])
		for j := range t {
			t[j] = Value(binary.LittleEndian.Uint64(payload))
			payload = payload[8:]
		}
		if run && (r.count == 0 || r.above(t)) {
			if vouchCheck {
				checkVouch(r, t, "DecodeInstanceInto")
			}
			r.push(t)
			continue
		}
		run = false
		h := tableHash(t)
		if r.insert(h, t) {
			continue
		}
		i := r.find(h, t)
		if int(i) >= start || met[i] {
			return fmt.Errorf("rel: relation %q carries duplicate tuple %v (canonical encoding is duplicate-free)", r.Name, t)
		}
		if met == nil {
			met = make(map[int32]bool)
		}
		met[i] = true
	}
	return nil
}

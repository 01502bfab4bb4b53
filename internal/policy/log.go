package policy

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// A log is a sequence of store images in one append-only file, for an
// owner that lands a new image often — an mpcnet worker, once per
// round — and would otherwise pay a file creation per image. Each image
// is one record, framed so a reader can find where it ends:
//
//	record := len u32 | crc32c(len) u32 | image
//
// where image is exactly EncodeStore's bytes, under their own magic,
// version and CRC. The store image stays the module's one durable
// format; the header adds a length and a checksum over the length, so
// a damaged length is told apart from a record the writer never
// finished.
//
// A reader tells two ways a log can end apart. A record cut off by EOF
// — a header shorter than its 8 bytes, or an image running past the end
// of the file — is a torn tail: what process death in the middle of an
// append leaves, and no error. A header whose checksum fails, or a
// complete record whose image does not decode, is a *LogError and is
// never skipped: the bytes after it cannot be trusted to be records.

// logHeaderLen is a record header's size: the image length and its CRC.
const logHeaderLen = 8

// LogError reports a damaged record: Offset is where its header starts.
type LogError struct {
	Offset int
	Err    error
}

func (e *LogError) Error() string {
	return fmt.Sprintf("policy: log record at byte %d: %v", e.Offset, e.Err)
}

func (e *LogError) Unwrap() error { return e.Err }

// LogRecord is one complete record of a log.
type LogRecord struct {
	Store *StableStore
	// Size is the record's length in the log, header included.
	Size int
}

// ReadLog parses a log's bytes: its complete records in order, and
// valid, the length of the prefix they make up. data[valid:] is a torn
// tail (possibly empty); a damaged record is a *LogError.
func ReadLog(data []byte) (recs []LogRecord, valid int, err error) {
	for off := 0; ; {
		rest := data[off:]
		if len(rest) < logHeaderLen {
			return recs, off, nil
		}
		if want, got := binary.LittleEndian.Uint32(rest[4:]), crc32.Checksum(rest[:4], storeCRCTable); want != got {
			return nil, 0, &LogError{Offset: off, Err: fmt.Errorf("header checksum mismatch (header says %#x, length hashes to %#x)", want, got)}
		}
		n := binary.LittleEndian.Uint32(rest)
		if uint64(n) > uint64(len(rest)-logHeaderLen) {
			return recs, off, nil
		}
		size := logHeaderLen + int(n)
		s, err := DecodeStore(bytes.NewReader(rest[logHeaderLen:size]))
		if err != nil {
			return nil, 0, &LogError{Offset: off, Err: err}
		}
		recs = append(recs, LogRecord{Store: s, Size: size})
		off += size
	}
}

// LoadLog reads the log at path through ReadLog. A missing file is
// reported as fs.ErrNotExist (errors.Is).
func LoadLog(path string) (recs []LogRecord, valid int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if recs, valid, err = ReadLog(data); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return recs, valid, nil
}

// Log appends records to a log file it holds open: each record is
// encoded into a buffer the log reuses and lands with one write. Nothing
// is fsynced, for SaveStore's reason: the fault model is process death,
// which the page cache survives.
type Log struct {
	f    *os.File
	buf  []byte
	size int
}

// OpenLog opens the log at path for appending, creating it if missing,
// and cuts it to valid bytes — the prefix LoadLog reported — so a torn
// tail never sits between the records before it and the next append. A
// file no longer than valid is left as it is.
func OpenLog(path string, valid int) (*Log, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err == nil && info.Size() > int64(valid) {
		err = f.Truncate(int64(valid))
	}
	if err != nil {
		_ = f.Close() //lint:allow error-discard the open failed either way; its error is the one to report
		return nil, err
	}
	return &Log{f: f, size: valid}, nil
}

// Append adds s's image to the log as one record and returns the
// record's size.
func (l *Log) Append(s *StableStore) (int, error) {
	l.buf = appendLogRecord(l.buf[:0], s)
	if _, err := l.f.Write(l.buf); err != nil {
		return 0, err
	}
	l.size += len(l.buf)
	return len(l.buf), nil
}

// appendLogRecord appends s's image, framed as one log record, to buf.
func appendLogRecord(buf []byte, s *StableStore) []byte {
	start := len(buf)
	buf = AppendStore(append(buf, make([]byte, logHeaderLen)...), s)
	hdr := buf[start : start+logHeaderLen]
	binary.LittleEndian.PutUint32(hdr, uint32(len(buf)-start-logHeaderLen))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(hdr[:4], storeCRCTable))
	return buf
}

// Size is the log's length in bytes: the valid prefix it was opened at
// plus every record appended since.
func (l *Log) Size() int { return l.size }

// Close closes the log's file.
func (l *Log) Close() error { return l.f.Close() }

package seqdb

import (
	"encoding/binary"
	"io"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/synth"
)

// memWriteSeeker is the minimal in-memory io.WriteSeeker Write needs,
// so fuzz seeds can be built without touching the filesystem.
type memWriteSeeker struct {
	buf []byte
	pos int64
}

func (m *memWriteSeeker) Write(p []byte) (int, error) {
	if need := m.pos + int64(len(p)); need > int64(len(m.buf)) {
		grown := make([]byte, need)
		copy(grown, m.buf)
		m.buf = grown
	}
	copy(m.buf[m.pos:], p)
	m.pos += int64(len(p))
	return len(p), nil
}

func (m *memWriteSeeker) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		m.pos = off
	case io.SeekCurrent:
		m.pos += off
	case io.SeekEnd:
		m.pos = int64(len(m.buf)) + off
	}
	return m.pos, nil
}

func validDBBytes(tb testing.TB, count int, seed int64) []byte {
	tb.Helper()
	var w memWriteSeeker
	if err := Write(&w, synth.RandomSet(alphabet.Protein, count, 0, 60, seed)); err != nil {
		tb.Fatal(err)
	}
	return w.buf
}

// FuzzReadSWDB feeds hostile database images to the parser Open trusts
// and then reads them the way a mapped database is read. The contract
// under fuzzing: parsing either errors with a message or yields a
// database whose every sequence and name is readable — it never panics,
// never reads out of range, and never sizes an allocation from a count
// the file's real length cannot back (the fuzzer would OOM on that long
// before an assertion fired).
func FuzzReadSWDB(f *testing.F) {
	valid := validDBBytes(f, 6, 21)
	f.Add(valid)
	f.Add(validDBBytes(f, 0, 22))
	f.Add([]byte(magic))
	f.Add(valid[:headerSize])
	f.Add(valid[:len(valid)-3]) // truncated index
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(huge[12:], 1<<60) // absurd count
	f.Add(huge)
	far := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(far[28:], 1<<62) // index offset past EOF
	f.Add(far)
	overlap := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(overlap[28:], headerSize) // index atop data
	f.Add(overlap)

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, entries, err := parseDB(data)
		if err != nil {
			return
		}
		// Accepted: Set and Verify over the image must be slice-safe,
		// exactly as they are over a mapping of the same bytes.
		m := &Mapped{data: data, hdr: hdr, entries: entries}
		set, err := m.Set()
		if err != nil {
			t.Fatal(err)
		}
		if set.Len() != hdr.count {
			t.Fatalf("%d sequences from a header declaring %d", set.Len(), hdr.count)
		}
		_ = m.Verify()
	})
}

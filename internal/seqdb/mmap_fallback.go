//go:build !unix

package seqdb

import (
	"fmt"
	"io"
	"os"
)

// mapFile reads size bytes of f into a heap buffer — the portable
// stand-in for mmap on platforms without one. The "mapping" is then
// GC-scanned memory shared with no other process, and read-only
// enforcement is by convention only; the Mapped API behaves identically
// either way, only the memory economics differ.
func mapFile(f *os.File, size int64) ([]byte, error) {
	if size <= 0 {
		return nil, fmt.Errorf("seqdb: cannot map %d bytes", size)
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("seqdb: file of %d bytes exceeds the address space", size)
	}
	b := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), b); err != nil {
		return nil, fmt.Errorf("seqdb: reading %s: %w", f.Name(), err)
	}
	return b, nil
}

// unmapFile releases the heap buffer to the garbage collector.
func unmapFile([]byte) error { return nil }

//go:build unix

package seqdb

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile maps size bytes of f read-only. The mapping survives the file
// descriptor being closed, and MAP_SHARED means every process mapping
// the same file on a host shares one physical copy through the page
// cache. PROT_READ makes writing through the mapping impossible by
// construction: a stray store faults at the MMU instead of corrupting
// the database.
func mapFile(f *os.File, size int64) ([]byte, error) {
	if size <= 0 {
		return nil, fmt.Errorf("seqdb: cannot map %d bytes", size)
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("seqdb: file of %d bytes exceeds the address space", size)
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("seqdb: mmap %s: %w", f.Name(), err)
	}
	return b, nil
}

// unmapFile releases a mapFile mapping. Any residue subslice handed out
// of the mapping becomes invalid the moment this returns — callers
// sequence Close after the last reader (see Mapped).
func unmapFile(b []byte) error {
	if b == nil {
		return nil
	}
	return syscall.Munmap(b)
}

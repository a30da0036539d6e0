//go:build unix && !race

package fedzkt

import "syscall"

// mapChunk maps n bytes of private anonymous memory, zero until written.
func mapChunk(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// unmapChunk unmaps a chunk mapChunk returned.
func unmapChunk(c []byte) error { return syscall.Munmap(c) }

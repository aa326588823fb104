//go:build !unix

package main

import (
	"errors"
	"time"
)

func cpuTime() (time.Duration, error) {
	return 0, errors.New("benchmark: process CPU time needs getrusage (unix only)")
}

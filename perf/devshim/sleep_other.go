//go:build !linux

package devshim

import "time"

func sleep(d time.Duration) { time.Sleep(d) }

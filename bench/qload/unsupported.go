//go:build !linux

// qload drives its sockets through epoll and reads server CPU time from
// /proc: it is Linux-only. This stub keeps `go build ./...` working
// elsewhere.
package main

import (
	"fmt"
	"os"
)

func main() {
	fmt.Fprintln(os.Stderr, "qload: the benchmark runs on Linux only")
	os.Exit(1)
}

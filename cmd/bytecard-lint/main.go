// Command bytecard-lint is ByteCard's static-analysis multichecker: eleven
// project-specific analyzers enforcing the determinism, guard-discipline,
// pool-hygiene, clamping, crash-safe-write, lock, atomic-consistency,
// context-propagation, and goroutine-provenance conventions the estimation
// stack depends on.
//
// Standalone:
//
//	go run ./cmd/bytecard-lint ./...
//
// With SARIF output and the committed baseline:
//
//	go run ./cmd/bytecard-lint -sarif lint.sarif -baseline lint-baseline.json ./...
//
// As a go vet tool (shares vet's per-package caching):
//
//	go build -o /tmp/bytecard-lint ./cmd/bytecard-lint
//	go vet -vettool=/tmp/bytecard-lint ./...
//
// Findings are suppressed per site with //bytecard:<key>-ok <reason>
// annotations (keys: atomic, atomicwrite, clamp, ctx, directcall, goroutine,
// lock, pool, rand, rawscan, unordered); the reason is mandatory.
package main

import "bytecard/internal/lint"

func main() {
	lint.Main(lint.All()...)
}

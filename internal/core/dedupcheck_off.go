//go:build !dedupcheck

package core

// dedupCollisionCheck gates the fingerprint-vs-signature cross-check.
// Enable with `go test -tags dedupcheck ./internal/core/...` to make the
// engine verify that no two distinct Load–Store-graph signatures ever
// hash to the same 64-bit fingerprint. A detected collision panics with
// the fingerprint and both signatures.
const dedupCollisionCheck = false

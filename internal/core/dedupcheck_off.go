//go:build !dedupcheck

package core

// dedupCollisionCheck gates the fingerprint-vs-signature cross-check.
// Enable with `go test -tags dedupcheck ./internal/core/...` to make the
// engine verify that no two distinct Load–Store-graph signatures ever
// hash to the same 64-bit fingerprint. A detected collision is counted
// (enum_dedup_collisions_total) and the colliding behavior is treated as
// unseen — explored and recorded rather than merged away — so the result
// set stays correct even if one occurs.
const dedupCollisionCheck = false

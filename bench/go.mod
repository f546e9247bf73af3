// The benchmark is a module of its own so that `go build ./...` and
// `go test ./...` at the repository root never compile or run it. The
// module path sits under mdrs/, which is what lets it import
// mdrs/internal/...; the replace directive points at the checkout the
// benchmark is measuring.
module mdrs/bench

go 1.22

require mdrs v0.0.0

replace mdrs => ../

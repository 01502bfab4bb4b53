// mpcbench is a module of its own so that it builds from the files
// under benchmark/ plus the repository it measures, and so that the
// root module's go build ./... and go test ./... never include it.
// Its import path lies under mpclogic/, which is what lets it import
// mpclogic/internal/...
module mpclogic/benchmark

go 1.22

require mpclogic v0.0.0

replace mpclogic => ../

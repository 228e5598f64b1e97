//go:build race

package gbd

const raceEnabled = true

//go:build !race

package fedzkt

const raceEnabled = false

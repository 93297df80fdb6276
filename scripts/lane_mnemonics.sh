#!/usr/bin/env bash
# Print the vector-arithmetic mnemonic multiset of every `*_avx2` and
# `*_avx512` function in a binary (the lane-instance entry points of the
# pair body), callees included, one sorted line each.
#
#   scripts/lane_mnemonics.sh <binary>
#
# A line is `<demangled path> <mnemonic>=<count> ...`, counting add, sub,
# mul, div, blend and FMA instructions. The FMA operand-order forms
# (132/213/231) are folded into one, so `vfmadd213pd` and `vfmadd231pd`
# both count as `vfmaddpd`. A function's count includes every function it
# reaches by a direct call or tail jump inside `lbm_core`. Addresses and
# symbol hashes are dropped and the lines sorted, so two builds of the same
# code print the same text: to check that a change leaves a path's
# arithmetic alone, build the binary at both commits and
#
#   diff <(scripts/lane_mnemonics.sh old/lbm-benchmark) \
#        <(scripts/lane_mnemonics.sh new/lbm-benchmark)
set -euo pipefail

bin=${1:?usage: scripts/lane_mnemonics.sh <binary>}

objdump -d --no-show-raw-insn -C "$bin" | awk '
function addr(hex) {
    sub(/^0+/, "", hex)
    return hex
}
# Add the counts of function `fn` and of everything it reaches to `acc`.
function reach(fn,    i, m, c) {
    if (fn in seen) return
    seen[fn] = 1
    for (i = 1; i <= nmn[fn]; i++) {
        m = mn[fn, i]
        acc[m] += count[fn, m]
    }
    for (i = 1; i <= ncall[fn]; i++) {
        c = callee[fn, i]
        if ((c in name) && name[c] ~ /^lbm_core::/) reach(c)
    }
}
function tally(m) {
    if (!((cur, m) in count)) mn[cur, ++nmn[cur]] = m
    count[cur, m]++
}
/^[0-9a-f]+ <.*>:$/ {
    cur = addr($1)
    name[cur] = substr($0, index($0, "<") + 1)
    sub(/>:$/, "", name[cur])
    next
}
cur != "" && /^ +[0-9a-f]+:\t/ {
    split($0, fld, "\t")
    split(fld[2], ops, " ")
    m = ops[1]
    if (m ~ /^v?fn?m(add|sub)(132|213|231)[ps][sd]$/) {
        sub(/(132|213|231)/, "", m)
        tally(m)
    } else if (m ~ /^v?(add|sub|mul|div)[ps][sd]$/ || m ~ /^v?blend/) {
        tally(m)
    } else if ((m == "call" || m == "jmp") && ops[2] ~ /^[0-9a-f]+$/ && fld[2] ~ /<[^+]*>$/) {
        if (addr(ops[2]) != cur) callee[cur, ++ncall[cur]] = addr(ops[2])
    }
}
END {
    for (f in name) {
        if (name[f] !~ /_avx(2|512)$/) continue
        delete seen
        delete acc
        reach(f)
        line = name[f]
        nk = 0
        for (k in acc) keys[++nk] = k
        # Insertion sort of the mnemonics, for a stable line.
        for (i = 2; i <= nk; i++) {
            v = keys[i]
            for (j = i - 1; j >= 1 && keys[j] > v; j--) keys[j + 1] = keys[j]
            keys[j + 1] = v
        }
        for (i = 1; i <= nk; i++) line = line " " keys[i] "=" acc[keys[i]]
        print line
    }
}' | LC_ALL=C sort

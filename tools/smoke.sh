#!/usr/bin/env bash
# Smoke-run the command-line interface end to end and check its answers.
#
#   tools/smoke.sh diracpmf                              # the installed console script
#   PYTHONPATH=src tools/smoke.sh "python -m diracpmf.cli"   # from a checkout
#
# The argument is the command that runs the CLI; it is split on spaces.
# Exits 0 when every expectation holds, non-zero at the first that does not.
set -eo pipefail
if [ $# -ne 1 ]; then
  echo "usage: $0 CMD" >&2
  exit 64
fi
cmd=$1
# `command` skips this function, so CMD=diracpmf runs the script on PATH.
diracpmf() { command $cmd "$@"; }
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

printf '01\n01\n11\n' > "$tmp/data.txt"
diracpmf estimate --method dirac --input "$tmp/data.txt" --query 01
diracpmf estimate --method expansion --input "$tmp/data.txt" --query 01
diracpmf estimate --method fwht --input "$tmp/data.txt" --query 01 | tee "$tmp/fwht.json"
grep -q '"method": "fwht", "query": "01", "p": 0.6666666666666666' "$tmp/fwht.json"
diracpmf spectrum --input "$tmp/data.txt"
# At odd L the butterfly ends in its second vector.
printf '011\n011\n110\n' > "$tmp/odd.txt"
diracpmf estimate --method expansion --input "$tmp/odd.txt" --query 011 | tee "$tmp/odd.json"
grep -q '"p": 0.6666666666666666}' "$tmp/odd.json"
# Expansion answers count/N bit for bit, so an unseen word reads exactly 0.0.
printf '10\n01\n11\n' > "$tmp/unseen.txt"
diracpmf estimate --method expansion --input "$tmp/unseen.txt" --query 00 | tee "$tmp/unseen.json"
grep -q '"p": 0.0}' "$tmp/unseen.json"
diracpmf spectrum --input "$tmp/odd.txt" > "$tmp/odd-spectrum.json"
grep -q '"mask": 0, "order": 0, "alpha": 0.125' "$tmp/odd-spectrum.json"
# Below 8 points a sign vector is part of one word of the byte table.
diracpmf basis --length 1 --check orthogonality | grep -q '"pass": true'
diracpmf basis --length 2 --check orthogonality | grep -q '"pass": true'
diracpmf basis --length 3 --check orthogonality | grep -q '"pass": true'
diracpmf basis --length 8 --check orthogonality | grep -q '"pass": true'
# At L=10 the expansion row doubles past the 512-entry bitset table and
# expands 128 bytes; it answers the dirac p bit for bit.
awk 'BEGIN { for (i = 0; i < 300; i++) { w = (i * i * 37 + 11) % 1024; s = "";
  for (b = 0; b < 10; b++) s = s int(w / 2 ^ b) % 2; print s } }' > "$tmp/l10.txt"
query=$(head -n 1 "$tmp/l10.txt")
dirac_p=$(diracpmf estimate --method dirac --input "$tmp/l10.txt" --query "$query" | grep -o '"p": [^,}]*')
expansion_p=$(diracpmf estimate --method expansion --input "$tmp/l10.txt" --query "$query" | grep -o '"p": [^,}]*')
test -n "$dirac_p"
test "$dirac_p" != '"p": 0.0'
test "$dirac_p" = "$expansion_p"
# L=11 is the first odd length past that table: the fits' integer inverse
# halves after each of 11 stages and ends in the butterfly's second vector.
awk 'BEGIN { for (i = 0; i < 300; i++) { w = (i * i * 37 + 11) % 2048; s = "";
  for (b = 0; b < 11; b++) s = s int(w / 2 ^ b) % 2; print s } }' > "$tmp/l11.txt"
query=$(head -n 1 "$tmp/l11.txt")
dirac_p=$(diracpmf estimate --method dirac --input "$tmp/l11.txt" --query "$query" | grep -o '"p": [^,}]*')
test -n "$dirac_p"
test "$dirac_p" != '"p": 0.0'
for method in fwht expansion; do
  p=$(diracpmf estimate --method "$method" --input "$tmp/l11.txt" --query "$query" | grep -o '"p": [^,}]*')
  test "$p" = "$dirac_p"
done
# The streamed indented output must parse as one JSON document.
diracpmf basis --length 3 --pretty | python -c 'import json, sys; json.load(sys.stdin)'
diracpmf spectrum --input "$tmp/odd.txt" --pretty | python -c 'import json, sys; json.load(sys.stdin)'
# A comment, a blank line and the comma form of 01 ingest as N=3.
printf '# comment\n\n0,1\n01\n 11 \n' > "$tmp/mixed.txt"
diracpmf estimate --input "$tmp/mixed.txt" --query 01 | tee "$tmp/mixed.json"
grep -q '"N": 3, "method": "dirac", "query": "01", "p": 0.6666666666666666' "$tmp/mixed.json"
# At L=64 a block packs into 64-bit items: the all-ones word sets each one's top bit.
ones=$(printf '%064d' 0 | tr 0 1)
printf '%s\n%064d\n%s\n' "$ones" 0 "$ones" > "$tmp/wide.txt"
diracpmf estimate --input "$tmp/wide.txt" --query "$ones" | tee "$tmp/wide.json"
grep -q '"p": 0.6666666666666666' "$tmp/wide.json"
# A comment, a blank line and a last line with no final newline, which
# repeats an earlier line: its count is summed into that line's word.
printf '# c\n\n01\n11\n01' > "$tmp/bare.txt"
for method in dirac expansion; do
  diracpmf estimate --method "$method" --input "$tmp/bare.txt" --query 01 | tee "$tmp/bare.json"
  grep -q '"N": 3' "$tmp/bare.json"
  grep -q '"p": 0.6666666666666666' "$tmp/bare.json"
done
diracpmf estimate --input "$tmp/data.txt" --query 01 --pretty | tee "$tmp/pretty.json"
grep -q '^  "p": 0.6666666666666666$' "$tmp/pretty.json"
# A usage error exits 1, like a data error; 2 means the paths disagree.
set +e
diracpmf estimate --input "$tmp/data.txt" --query -x
code=$?
# A byte that is not UTF-8 exits 1 naming its line, in a comment too.
printf '01\n# caf\xe9\n11\n' > "$tmp/bad.txt"
diracpmf estimate --input "$tmp/bad.txt" --query 01 2> "$tmp/bad.err"
bad_code=$?
# An illegal character exits 1 naming its line and the character.
printf '01\n0x\n' > "$tmp/illegal.txt"
diracpmf estimate --input "$tmp/illegal.txt" --query 01 2> "$tmp/illegal.err"
illegal_code=$?
# A bad line past two blocks of 1024 canonical lines exits 1 naming its own line.
awk 'BEGIN { for (i = 1; i <= 2100; i++) print (i == 2050 ? "0x" : (i % 2 ? "01" : "11")) }' > "$tmp/long.txt"
diracpmf estimate --input "$tmp/long.txt" --query 01 2> "$tmp/long.err"
long_code=$?
# A bench length outside 1..64 exits 1 with one error line, before any cell runs.
diracpmf bench --length -1 2> "$tmp/bench.err"
bench_code=$?
# A bench with no samples exits 1 naming the flag, before any cell runs.
diracpmf bench --length 4 --samples 0 2> "$tmp/samples.err"
samples_code=$?
set -e
test "$code" -eq 1
test "$bad_code" -eq 1
test "$illegal_code" -eq 1
grep -q 'line 2: byte 0xe9 is not UTF-8' "$tmp/bad.err"
grep -q "line 2: illegal character 'x'" "$tmp/illegal.err"
test "$long_code" -eq 1
grep -q "line 2050: illegal character 'x'" "$tmp/long.err"
test "$bench_code" -eq 1
test "$(wc -l < "$tmp/bench.err")" -eq 1
grep -q '^error: LengthOutOfRange' "$tmp/bench.err"
if grep -q Traceback "$tmp/bench.err"; then exit 1; fi
test "$samples_code" -eq 1
test "$(wc -l < "$tmp/samples.err")" -eq 1
grep -q '^error: DiracPmfError: --samples' "$tmp/samples.err"
if grep -q Traceback "$tmp/samples.err"; then exit 1; fi
# CRLF line endings give the same estimate as LF ones.
sed 's/$/\r/' "$tmp/data.txt" > "$tmp/crlf.txt"
lf_p=$(diracpmf estimate --input "$tmp/data.txt" --query 01 | grep -o '"p": [^,}]*')
crlf_p=$(diracpmf estimate --input "$tmp/crlf.txt" --query 01 | grep -o '"p": [^,}]*')
test -n "$lf_p"
test "$lf_p" = "$crlf_p"
diracpmf lemma --length 4 | grep -q '"all_pass": true'
# L=9 is the last length the 512-entry low-coordinate sign table serves
# whole, and L=10 the first that doubles past it.
diracpmf lemma --length 9 | grep -q '"all_pass": true'
diracpmf lemma --length 10 | grep -q '"all_pass": true'
diracpmf lemma --length 3 --signs "+-+" | grep -q '"pass": true'
diracpmf bench --length 4 --samples 50 --queries 50
echo "smoke: all expectations hold" >&2

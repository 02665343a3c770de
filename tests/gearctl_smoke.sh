#!/bin/sh
# End-to-end smoke test for the gearctl CLI: import a real directory,
# inspect, cat, run (hard-link materialization), export, verify byte
# equality, delete, and garbage-collect. Driven by CTest.
set -eu

GEARCTL="$1"
WORK="$(mktemp -d)"
SERVE_PID=""
trap 'test -n "$SERVE_PID" && kill "$SERVE_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

SRC="$WORK/src"
STORE="$WORK/store"
OUT="$WORK/out"

# Pack store helpers. A segment holds records: a 32-byte header (magic
# "GP", version, kind, fingerprint at [4,20), payload length at [20,24)
# little-endian, two CRC-32Cs) and the payload, a GZC1 frame for an object.
first_segment() { ls "$1/pack/"*.seg | head -n 1; }
header_fp() { od -A n -t x1 -j $(($2 + 4)) -N 16 "$1" | tr -d ' \n'; }
file_size() { echo $(($(wc -c < "$1"))); }
# Prints the header offset of the object record of fingerprint $2 in
# segment $1, walking the record headers.
record_of() {
  off=0
  size="$(file_size "$1")"
  while test "$off" -lt "$size"; do
    kind="$(od -A n -t u1 -j $((off + 3)) -N 1 "$1" | tr -d ' ')"
    len="$(od -A n -t u1 -j $((off + 20)) -N 4 "$1" \
      | awk '{ print $1 + 256 * $2 + 65536 * $3 + 16777216 * $4 }')"
    if test "$kind" -eq 1 && test "$(header_fp "$1" "$off")" = "$2"; then
      echo "$off"
      return 0
    fi
    off=$((off + 32 + len))
  done
  return 1
}

mkdir -p "$SRC/app" "$SRC/etc"
printf 'hello from gearctl\n' > "$SRC/app/hello.txt"
head -c 65536 /dev/urandom > "$SRC/app/blob.bin"
printf 'mode=prod\n' > "$SRC/etc/app.conf"
ln -s ../etc/app.conf "$SRC/app/conf-link"

# A store that was never initialized is refused (exit 1) and left uncreated.
if "$GEARCTL" "$WORK/never" stats 2> "$WORK/never.err"
then exit 1; else test $? -eq 1; fi
grep -q "no gear store" "$WORK/never.err"
test ! -e "$WORK/never"

"$GEARCTL" "$STORE" init
"$GEARCTL" "$STORE" import "$SRC" demo:v1
# The Gear files live in a durable object store under the store root.
test -n "$(ls "$STORE/pack")"
test ! -e "$STORE/gear"
"$GEARCTL" "$STORE" images | grep -q "demo:v1"
"$GEARCTL" "$STORE" inspect demo:v1 | grep -q "files:"
test "$("$GEARCTL" "$STORE" cat demo:v1 app/hello.txt)" = "hello from gearctl"

# run twice: second hit must come from the local cache.
"$GEARCTL" "$STORE" run demo:v1 app/blob.bin | grep -q "registry"
"$GEARCTL" "$STORE" run demo:v1 app/blob.bin | grep -q "cache"
# Each run removes the container it launched when it ends.
test -d "$STORE/local/containers"
test -z "$(ls -A "$STORE/local/containers")"

"$GEARCTL" "$STORE" export demo:v1 "$OUT"
diff -r "$SRC" "$OUT"

# container lifecycle: launch, lazy read, write, commit, relaunch.
C="$("$GEARCTL" "$STORE" launch demo:v1)"
test "$("$GEARCTL" "$STORE" read "$C" app/hello.txt)" = "hello from gearctl"
"$GEARCTL" "$STORE" write "$C" app/note.txt "patched"
test "$("$GEARCTL" "$STORE" read "$C" app/note.txt)" = "patched"
"$GEARCTL" "$STORE" commit "$C" demo:patched
test "$("$GEARCTL" "$STORE" cat demo:patched app/note.txt)" = "patched"
# Writing over a directory of the image fails (overlayfs's EISDIR) and
# leaves the directory and its files in place.
if "$GEARCTL" "$STORE" write "$C" app x 2> "$WORK/eisdir.err"
then exit 1; else test $? -eq 1; fi
grep -q "is a directory" "$WORK/eisdir.err"
test "$("$GEARCTL" "$STORE" read "$C" app/hello.txt)" = "hello from gearctl"

# second import of the same content deduplicates everything.
"$GEARCTL" "$STORE" import "$SRC" demo:v2 | grep -q "0 uploaded"

"$GEARCTL" "$STORE" rm demo:v1
"$GEARCTL" "$STORE" rm demo:v2
"$GEARCTL" "$STORE" rm demo:patched
"$GEARCTL" "$STORE" gc | grep -q "swept"
"$GEARCTL" "$STORE" stats | grep -q "0 objects"
# gc also sweeps the removed images' index blobs from the catalog.
"$GEARCTL" "$STORE" stats | grep -q "0 manifests, 0 blobs"

# A store in the retired snapshot layout (decompressed Gear files under
# <store>/gear) is refused (exit 1) naming that directory, instead of
# listing images whose every read would fail.
GSTORE="$WORK/gstore"
"$GEARCTL" "$GSTORE" init > /dev/null
mkdir -p "$GSTORE/gear/objects"
if "$GEARCTL" "$GSTORE" images > /dev/null 2> "$WORK/retired.err"
then exit 1; else test $? -eq 1; fi
grep -q "$GSTORE/gear" "$WORK/retired.err"
# So is one whose Gear files sit in the retired one-file-per-object layout
# (<store>/objects): exit 1 naming the directory and asking for a re-import.
OSTORE="$WORK/ostore"
"$GEARCTL" "$OSTORE" init > /dev/null
mkdir -p "$OSTORE/objects"
if "$GEARCTL" "$OSTORE" images > /dev/null 2> "$WORK/oretired.err"
then exit 1; else test $? -eq 1; fi
grep -q "$OSTORE/objects" "$WORK/oretired.err"
grep -q "re-import" "$WORK/oretired.err"

# An empty source directory imports as an empty image: its index layer is
# the tar trailer alone, and a launch or an export of it holds 0 files.
ESTORE="$WORK/estore"
mkdir -p "$WORK/empty-src"
"$GEARCTL" "$ESTORE" init > /dev/null
"$GEARCTL" "$ESTORE" import "$WORK/empty-src" void:v1 | grep -q "0 files"
"$GEARCTL" "$ESTORE" images | grep -q "void:v1"
"$GEARCTL" "$ESTORE" launch --lazy void:v1 2>&1 | grep -q "0 files"
"$GEARCTL" "$ESTORE" export void:v1 "$WORK/empty-out" | grep -q "(0 B)"
test -d "$WORK/empty-out"
test -z "$(ls -A "$WORK/empty-out")"

# --- durable on-disk backend (--store-dir) -------------------------------
# Push into a DiskObjectStore-backed registry, then "restart" (every gearctl
# invocation is a new process) and deploy WITHOUT re-pushing: the reopened
# store must already hold every object.
DSTORE="$WORK/dstore"
OBJDIR="$WORK/objstore"
DOUT="$WORK/dout"

"$GEARCTL" --store-dir "$OBJDIR" "$DSTORE" init
"$GEARCTL" --store-dir "$OBJDIR" "$DSTORE" import "$SRC" disk:v1
test -n "$(ls "$OBJDIR/pack")"

# Restart: a fresh process reopens the same object store; a re-import of
# identical content must upload nothing (zero re-push after restart) and an
# export must reproduce the source byte-for-byte.
"$GEARCTL" --store-dir "$OBJDIR" "$DSTORE" import "$SRC" disk:v2 \
  | grep -q "0 uploaded"
"$GEARCTL" --store-dir "$OBJDIR" "$DSTORE" export disk:v1 "$DOUT"
diff -r "$SRC" "$DOUT"

# Crash recovery: the bytes of a torn append after the last complete record
# are ignored on reopen, never served, and left alone by a reader; the next
# write cuts them off and appends a record where they were.
SEG="$(ls "$OBJDIR/pack/"*.seg | tail -n 1)"
SIZE="$(file_size "$SEG")"
printf 'torn' >> "$SEG"
"$GEARCTL" --store-dir "$OBJDIR" "$DSTORE" stats | grep -q "gear registry"
test "$(file_size "$SEG")" -eq $((SIZE + 4))
mkdir -p "$WORK/src2"
printf 'written after the crash\n' > "$WORK/src2/new.txt"
"$GEARCTL" --store-dir "$OBJDIR" "$DSTORE" import "$WORK/src2" disk:v3 \
  | grep -q "1 uploaded"
test "$(od -A n -t c -j "$SIZE" -N 2 "$SEG" | tr -d ' ')" = "GP"
"$GEARCTL" --store-dir "$OBJDIR" "$DSTORE" stats | grep -q "gear registry"

# Scrub of a store holding one damaged object (its GZC1 magic overwritten;
# the record is found through its header): the object is listed as corrupt
# (exit 1) and the scan covers every object.
BADOBJ="$WORK/badobj"
cp -r "$OBJDIR" "$BADOBJ"
BADSEG="$(first_segment "$BADOBJ")"
VICTIM="$(header_fp "$BADSEG" 0)"
printf 'XXXX' | dd of="$BADSEG" bs=1 seek=32 conv=notrunc 2>/dev/null
if "$GEARCTL" --store-dir "$BADOBJ" "$DSTORE" scrub > "$WORK/scrub.out"
then exit 1; else test $? -eq 1; fi
grep -q "CORRUPT: $VICTIM" "$WORK/scrub.out"
grep -q "1 corrupt" "$WORK/scrub.out"
# Re-importing over the damaged object: the collision probe's failure is an
# error naming the object (exit 1), not a miss that pushes a broken image.
if "$GEARCTL" --store-dir "$BADOBJ" "$DSTORE" import "$SRC" disk:bad \
  > /dev/null 2> "$WORK/badimport.err"
then exit 1; else test $? -eq 1; fi
grep -q "$VICTIM" "$WORK/badimport.err"
if "$GEARCTL" --store-dir "$BADOBJ" "$DSTORE" images | grep -q "disk:bad"
then exit 1; fi
# Export and a lazy launch's backfill over the damaged object fail (exit 1)
# naming the file: its image path and its fingerprint.
BADFILE="\(app/hello.txt\|app/blob.bin\|etc/app.conf\) ($VICTIM)"
if "$GEARCTL" --store-dir "$BADOBJ" "$DSTORE" export disk:v1 "$WORK/badout" \
  > /dev/null 2> "$WORK/badexport.err"
then exit 1; else test $? -eq 1; fi
grep -q "export of $BADFILE" "$WORK/badexport.err"
LSTORE="$WORK/lstore"
cp -r "$DSTORE" "$LSTORE"
if "$GEARCTL" --store-dir "$BADOBJ" --lazy "$LSTORE" launch disk:v1 \
  > /dev/null 2> "$WORK/badlaunch.err"
then exit 1; else test $? -eq 1; fi
grep -q "prefetch of $BADFILE" "$WORK/badlaunch.err"

# One byte flipped inside the LZSS literals of a stored frame: the frame
# still decodes, to content one byte wrong, so only the record's CRC-32C
# can tell. Export and a lazy launch fail (exit 1) naming the path and the
# fingerprint, a re-import fails in its collision probe, and scrub counts
# the object corrupt. flip_literal finds the record through its header:
# payload byte 10 follows GZC1, the LZSS method byte, a two-byte size and
# the first flag byte, and is the third literal (the 'a' of "gear").
LSRC="$WORK/litsrc"
mkdir -p "$LSRC"
yes 'gear smoke literal line' | head -c 4096 > "$LSRC/lit.txt"
LFP="$(md5sum < "$LSRC/lit.txt" | cut -c1-32)"
flip_literal() {
  seg="$(first_segment "$1")"
  off="$(record_of "$seg" "$LFP")"
  test "$(od -A n -t c -j $((off + 32 + 10)) -N 1 "$seg" | tr -d ' ')" = "a"
  printf 'Z' | dd of="$seg" bs=1 seek=$((off + 32 + 10)) conv=notrunc \
    2>/dev/null
}
LITSTORE="$WORK/litstore"
LITOBJ="$WORK/litobj"
"$GEARCTL" --store-dir "$LITOBJ" "$LITSTORE" init > /dev/null
"$GEARCTL" --store-dir "$LITOBJ" "$LITSTORE" import "$LSRC" lit:v1 > /dev/null
flip_literal "$LITOBJ"
if "$GEARCTL" --store-dir "$LITOBJ" "$LITSTORE" export lit:v1 \
  "$WORK/litout" > /dev/null 2> "$WORK/litexport.err"
then exit 1; else test $? -eq 1; fi
grep -q "export of lit.txt ($LFP)" "$WORK/litexport.err"
if "$GEARCTL" --store-dir "$LITOBJ" --lazy "$LITSTORE" launch lit:v1 \
  > /dev/null 2> "$WORK/litlaunch.err"
then exit 1; else test $? -eq 1; fi
grep -q "prefetch of lit.txt ($LFP)" "$WORK/litlaunch.err"
if "$GEARCTL" --store-dir "$LITOBJ" "$LITSTORE" import "$LSRC" lit:v2 \
  > /dev/null 2> "$WORK/litimport.err"
then exit 1; else test $? -eq 1; fi
grep -q "collision probe of $LFP" "$WORK/litimport.err"
if "$GEARCTL" --store-dir "$LITOBJ" "$LITSTORE" scrub > "$WORK/litscrub.out"
then exit 1; else test $? -eq 1; fi
grep -q "1 corrupt" "$WORK/litscrub.out"
grep -q "CORRUPT: $LFP" "$WORK/litscrub.out"

# A source tree holding a ".wh." name (the layer whiteout marker, which a
# Gear index cannot carry) is refused with exit 1, naming the path, before
# anything is uploaded or any manifest is written.
WSRC="$WORK/wsrc"
WSTORE="$WORK/wstore"
WOBJ="$WORK/wobj"
mkdir -p "$WSRC/etc"
printf 'mode=prod\n' > "$WSRC/etc/app.conf"
printf 'kept\n' > "$WSRC/etc/.wh.keep"
"$GEARCTL" --store-dir "$WOBJ" "$WSTORE" init
if "$GEARCTL" --store-dir "$WOBJ" "$WSTORE" import "$WSRC" wh:v1 \
  > /dev/null 2> "$WORK/wh.err"
then exit 1; else test $? -eq 1; fi
grep -q "etc/.wh.keep" "$WORK/wh.err"
test -z "$(ls "$WOBJ/pack" 2>/dev/null)"
if "$GEARCTL" --store-dir "$WOBJ" "$WSTORE" images | grep -q "wh:v1"
then exit 1; fi

# Flag validation mirrors --workers: a missing or empty path is a usage
# error (exit 2), not a crash.
if "$GEARCTL" --store-dir 2>/dev/null; then exit 1; else test $? -eq 2; fi
if "$GEARCTL" --store-dir "" "$DSTORE" stats 2>/dev/null; then exit 1
else test $? -eq 2; fi

# --- chunked range reads (--range-batch) ---------------------------------
# A 512 KiB blob imported with a 64 KiB chunk threshold stores chunked
# (default chunk size 128 KiB -> 4 chunks). Ranged cat must return the same
# bytes as a dd slice of the source, at batch 64 and at batch 1 (the serial
# per-chunk protocol).
CSRC="$WORK/csrc"
CSTORE="$WORK/cstore"
mkdir -p "$CSRC"
head -c 524288 /dev/urandom > "$CSRC/model.bin"

"$GEARCTL" "$CSTORE" init
"$GEARCTL" "$CSTORE" import "$CSRC" chunky:v1 65536
"$GEARCTL" "$CSTORE" inspect chunky:v1 | grep -q "chunked files: 1"

# The threshold is a decimal byte count: a suffix or a word is a usage error
# (exit 2) that imports nothing, not a 64-byte threshold or chunking off.
if "$GEARCTL" "$CSTORE" import "$CSRC" chunky:bad 64k 2>/dev/null
then exit 1; else test $? -eq 2; fi
if "$GEARCTL" "$CSTORE" import "$CSRC" chunky:bad abc 2>/dev/null
then exit 1; else test $? -eq 2; fi
if "$GEARCTL" "$CSTORE" images | grep -q "chunky:bad"; then exit 1; fi

# A range spanning the chunk 1/2 boundary and a tail range into the file end.
dd if="$CSRC/model.bin" bs=1 skip=130000 count=40000 2>/dev/null \
  > "$WORK/want.mid"
dd if="$CSRC/model.bin" bs=1 skip=520000 count=4288 2>/dev/null \
  > "$WORK/want.tail"
"$GEARCTL" "$CSTORE" cat chunky:v1 model.bin 130000 40000 > "$WORK/got.mid"
cmp "$WORK/want.mid" "$WORK/got.mid"
"$GEARCTL" --range-batch 1 "$CSTORE" cat chunky:v1 model.bin 130000 40000 \
  > "$WORK/got.mid1"
cmp "$WORK/want.mid" "$WORK/got.mid1"
"$GEARCTL" --range-batch 1 "$CSTORE" cat chunky:v1 model.bin 520000 4288 \
  > "$WORK/got.tail"
cmp "$WORK/want.tail" "$WORK/got.tail"

# Whole-file range equals plain cat; a range on an unchunked file works too.
"$GEARCTL" "$CSTORE" cat chunky:v1 model.bin 0 524288 > "$WORK/got.whole"
cmp "$CSRC/model.bin" "$WORK/got.whole"
"$GEARCTL" "$STORE" import "$SRC" demo:v3 > /dev/null
"$GEARCTL" "$STORE" cat demo:v3 app/blob.bin 100 200 > "$WORK/got.plain"
dd if="$SRC/app/blob.bin" bs=1 skip=100 count=200 2>/dev/null \
  > "$WORK/want.plain"
cmp "$WORK/want.plain" "$WORK/got.plain"

# Out-of-bounds and malformed ranges fail cleanly.
if "$GEARCTL" "$CSTORE" cat chunky:v1 model.bin 524288 1 2>/dev/null
then exit 1; else test $? -eq 1; fi
if "$GEARCTL" "$CSTORE" cat chunky:v1 model.bin 0 0 2>/dev/null
then exit 1; else test $? -eq 2; fi
if "$GEARCTL" "$CSTORE" cat chunky:v1 model.bin abc 10 2>/dev/null
then exit 1; else test $? -eq 2; fi

# --range-batch validation mirrors --workers: missing value, zero, and
# non-numeric values are usage errors (exit 2), not crashes.
if "$GEARCTL" --range-batch 2>/dev/null; then exit 1; else test $? -eq 2; fi
if "$GEARCTL" --range-batch 0 "$CSTORE" stats 2>/dev/null; then exit 1
else test $? -eq 2; fi
if "$GEARCTL" --range-batch nope "$CSTORE" stats 2>/dev/null; then exit 1
else test $? -eq 2; fi

# --- prefetch (--prefetch-order) -----------------------------------------
# Warm a whole image into the on-disk cache; a second prefetch must move
# nothing (the cheap membership pass early-outs). All three orders parse.
PSTORE="$WORK/pstore"
"$GEARCTL" "$PSTORE" init
"$GEARCTL" "$PSTORE" import "$SRC" pf:v1 > /dev/null
"$GEARCTL" "$PSTORE" prefetch pf:v1 | grep -q "delta order"
"$GEARCTL" "$PSTORE" prefetch pf:v1 | grep -q "0 files"
"$GEARCTL" --prefetch-order path "$PSTORE" prefetch pf:v1 | grep -q "0 files"
"$GEARCTL" --prefetch-order profile "$PSTORE" prefetch pf:v1 \
  | grep -q "profile order"
# A prefetched file reads from the cache, not the registry.
"$GEARCTL" "$PSTORE" run pf:v1 app/blob.bin | grep -q "cache"

# Flag validation mirrors --workers: missing and bogus values are usage
# errors (exit 2), not crashes.
if "$GEARCTL" --prefetch-order 2>/dev/null; then exit 1; else test $? -eq 2; fi
if "$GEARCTL" --prefetch-order sideways "$PSTORE" prefetch pf:v1 2>/dev/null
then exit 1; else test $? -eq 2; fi

# --- registry fleet (--shards / --replicas) -------------------------------
# Two disk-backed shards behind the consistent-hash router. Placement is
# stable across invocations, so a re-import of identical content uploads
# nothing, and an export reads every object back byte-for-byte through the
# ring.
FSTORE="$WORK/fstore"
FOBJ="$WORK/fobj"
FOUT="$WORK/fout"
"$GEARCTL" --store-dir "$FOBJ" --shards 2 "$FSTORE" init
"$GEARCTL" --store-dir "$FOBJ" --shards 2 "$FSTORE" import "$SRC" fleet:v1
test -d "$FOBJ/shard-0"
test -d "$FOBJ/shard-1"
"$GEARCTL" --store-dir "$FOBJ" --shards 2 "$FSTORE" import "$SRC" fleet:v2 \
  | grep -q "0 uploaded"
"$GEARCTL" --store-dir "$FOBJ" --shards 2 "$FSTORE" export fleet:v1 "$FOUT"
diff -r "$SRC" "$FOUT"
"$GEARCTL" --store-dir "$FOBJ" --shards 2 "$FSTORE" stats \
  | grep -q "fleet of 2 shards"

# With --replicas 2 every object lands on BOTH shards: each shard directory
# alone holds the full object count reported by stats.
ROBJ="$WORK/robj"
RSTORE="$WORK/rstore"
"$GEARCTL" --store-dir "$ROBJ" --shards 2 --replicas 2 "$RSTORE" init
"$GEARCTL" --store-dir "$ROBJ" --shards 2 --replicas 2 "$RSTORE" \
  import "$SRC" repl:v1
shard_objects() {
  "$GEARCTL" --store-dir "$ROBJ/shard-$1" "$RSTORE" stats \
    | sed -n 's/^gear registry: *\([0-9][0-9]*\) objects.*/\1/p'
}
N0="$(shard_objects 0)"
N1="$(shard_objects 1)"
test "$N0" -eq "$N1"
test "$N0" -gt 0

# Read-only commands route through the fleet router: cat, prefetch, and a
# lazy launch's fault-in all work against a sharded registry.
test "$("$GEARCTL" --store-dir "$FOBJ" --shards 2 "$FSTORE" \
  cat fleet:v1 app/hello.txt)" = "hello from gearctl"
"$GEARCTL" --store-dir "$FOBJ" --shards 2 "$FSTORE" prefetch fleet:v1 \
  | grep -q "delta order"
FC="$("$GEARCTL" --store-dir "$FOBJ" --shards 2 "$FSTORE" \
  launch --lazy fleet:v1 2>/dev/null)"
test "$("$GEARCTL" --store-dir "$FOBJ" --shards 2 "$FSTORE" \
  read "$FC" app/hello.txt)" = "hello from gearctl"

# Registry-internal commands reject fleet mode cleanly (usage error).
if "$GEARCTL" --store-dir "$FOBJ" --shards 2 "$FSTORE" gc 2>/dev/null
then exit 1; else test $? -eq 2; fi

# Flag validation: missing, zero, and non-numeric counts, replicas
# exceeding shards, and fleet mode without a store dir are all usage
# errors (exit 2), not crashes.
if "$GEARCTL" --shards 2>/dev/null; then exit 1; else test $? -eq 2; fi
if "$GEARCTL" --shards 0 "$FSTORE" stats 2>/dev/null; then exit 1
else test $? -eq 2; fi
if "$GEARCTL" --shards nope "$FSTORE" stats 2>/dev/null; then exit 1
else test $? -eq 2; fi
if "$GEARCTL" --replicas 0 "$FSTORE" stats 2>/dev/null; then exit 1
else test $? -eq 2; fi
if "$GEARCTL" --replicas nope "$FSTORE" stats 2>/dev/null; then exit 1
else test $? -eq 2; fi
if "$GEARCTL" --store-dir "$FOBJ" --shards 2 --replicas 3 "$FSTORE" stats \
  2>/dev/null
then exit 1; else test $? -eq 2; fi
if "$GEARCTL" --shards 2 "$FSTORE" stats 2>/dev/null; then exit 1
else test $? -eq 2; fi

# --- lazy launch (--lazy) -------------------------------------------------
# launch --lazy prints the container id immediately (stdout) and reports the
# background backfill on stderr; reads against the container then hit the
# warmed cache.
ZSTORE="$WORK/zstore"
"$GEARCTL" "$ZSTORE" init
"$GEARCTL" "$ZSTORE" import "$SRC" zz:v1 > /dev/null
ZC="$("$GEARCTL" "$ZSTORE" launch --lazy zz:v1 2>"$WORK/lazy.err")"
test -n "$ZC"
grep -q "backfilled" "$WORK/lazy.err"
test "$("$GEARCTL" "$ZSTORE" read "$ZC" app/hello.txt)" = "hello from gearctl"
# The backfill warmed everything: a subsequent run reads from the cache and
# a prefetch moves nothing.
"$GEARCTL" "$ZSTORE" run zz:v1 app/blob.bin | grep -q "cache"
"$GEARCTL" "$ZSTORE" prefetch zz:v1 | grep -q "0 files"

# Only init, import, commit, rm and gc write the catalog (<store>/docker):
# every read-only command leaves it as it found it, a foreign file included.
touch "$ZSTORE/docker/sentinel"
"$GEARCTL" "$ZSTORE" launch zz:v1 > /dev/null
"$GEARCTL" "$ZSTORE" launch --lazy zz:v1 > /dev/null 2>&1
"$GEARCTL" "$ZSTORE" prefetch zz:v1 > /dev/null
"$GEARCTL" "$ZSTORE" export zz:v1 "$WORK/zout" > /dev/null
"$GEARCTL" "$ZSTORE" cat zz:v1 app/hello.txt > /dev/null
"$GEARCTL" "$ZSTORE" inspect zz:v1 > /dev/null
"$GEARCTL" "$ZSTORE" images > /dev/null
"$GEARCTL" "$ZSTORE" stats > /dev/null
test -e "$ZSTORE/docker/sentinel"

# Strict flag validation: --lazy with any command but launch is a usage
# error (exit 2), not a silent no-op.
if "$GEARCTL" --lazy "$ZSTORE" stats 2>/dev/null; then exit 1
else test $? -eq 2; fi
if "$GEARCTL" "$ZSTORE" cat --lazy zz:v1 app/hello.txt 2>/dev/null
then exit 1; else test $? -eq 2; fi
if "$GEARCTL" --lazy "$ZSTORE" prefetch zz:v1 2>/dev/null; then exit 1
else test $? -eq 2; fi

# --- host admission + cache governance -----------------------------------
# --host-budget-bytes meters the invocation's downloads and reports the
# admission telemetry on stderr; stats prints the governance block.
ASTORE="$WORK/astore"
"$GEARCTL" "$ASTORE" init
"$GEARCTL" "$ASTORE" import "$SRC" adm:v1 > /dev/null
"$GEARCTL" --host-budget-bytes 32768 "$ASTORE" prefetch adm:v1 \
  2> "$WORK/adm.err" | grep -q "delta order"
grep -q "admission: budget" "$WORK/adm.err"
"$GEARCTL" "$ASTORE" stats | grep -q "admission:       ungoverned"
"$GEARCTL" --host-budget-bytes 32768 "$ASTORE" stats \
  | grep -q "admission:       budget"
"$GEARCTL" "$ASTORE" stats | grep -q "local cache:"

# A tiny cache envelope forces disk-pressure evictions/rejections during
# prefetch (blob.bin alone is 64 KiB), reported on stderr; reads still work
# afterwards — whatever was reclaimed simply faults back in on demand.
ESTORE="$WORK/estore"
"$GEARCTL" "$ESTORE" init
"$GEARCTL" "$ESTORE" import "$SRC" ev:v1 > /dev/null
"$GEARCTL" --cache-capacity-bytes 16384 --eviction fifo "$ESTORE" \
  prefetch ev:v1 > /dev/null 2> "$WORK/ev.err"
grep -q "cache pressure: capacity" "$WORK/ev.err"
test "$("$GEARCTL" "$ESTORE" cat ev:v1 app/hello.txt)" = "hello from gearctl"

# run faults its files in through the same governed runtime: its registry
# downloads acquire admission, and both envelopes are reported.
RUNSTORE="$WORK/runstore"
"$GEARCTL" "$RUNSTORE" init
"$GEARCTL" "$RUNSTORE" import "$SRC" gov:v1 > /dev/null
"$GEARCTL" --host-budget-bytes 100000 --cache-capacity-bytes 60000 "$RUNSTORE" \
  run gov:v1 app/blob.bin app/hello.txt > "$WORK/run.out" 2> "$WORK/run.err"
grep -q "app/blob.bin: .*(registry, nlink=2" "$WORK/run.out"
grep -q "admission: budget .*, [1-9][0-9]* admitted" "$WORK/run.err"
grep -q "cache pressure: capacity" "$WORK/run.err"

# Strict flag validation: missing, zero, and non-numeric byte counts and a
# bogus eviction policy are usage errors (exit 2), not crashes.
if "$GEARCTL" --host-budget-bytes 2>/dev/null; then exit 1
else test $? -eq 2; fi
if "$GEARCTL" --host-budget-bytes 0 "$ASTORE" stats 2>/dev/null; then exit 1
else test $? -eq 2; fi
if "$GEARCTL" --host-budget-bytes nope "$ASTORE" stats 2>/dev/null
then exit 1; else test $? -eq 2; fi
if "$GEARCTL" --cache-capacity-bytes 0 "$ASTORE" stats 2>/dev/null
then exit 1; else test $? -eq 2; fi
if "$GEARCTL" --cache-capacity-bytes nope "$ASTORE" stats 2>/dev/null
then exit 1; else test $? -eq 2; fi
if "$GEARCTL" --eviction 2>/dev/null; then exit 1; else test $? -eq 2; fi
if "$GEARCTL" --eviction sideways "$ASTORE" stats 2>/dev/null; then exit 1
else test $? -eq 2; fi

# --- TCP registry daemon (serve / --remote) -------------------------------
# Two real OS processes: a `gearctl serve` daemon owning the object store,
# and client invocations dialing it with --remote. Covers push over TCP,
# a daemon restart with zero re-upload, byte-identical export through the
# socket, remote stats, and clean SIGTERM shutdown.
NSTORE="$WORK/nstore"   # client side: docker snapshot only
NOBJ="$WORK/nobj"       # daemon side: the durable object store
NOUT="$WORK/nout"

wait_serving() {
  # Blocks until the daemon prints its "serving on" line (or ~10s pass).
  i=0
  while ! grep -q "serving on" "$1" 2>/dev/null; do
    i=$((i+1)); test "$i" -le 100; sleep 0.1
  done
}

"$GEARCTL" serve --addr 127.0.0.1:0 --store-dir "$NOBJ" \
  > "$WORK/serve.out" 2> "$WORK/serve.err" &
SERVE_PID=$!
wait_serving "$WORK/serve.out"
PORT="$(sed -n 's/^serving on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' \
  "$WORK/serve.out")"
test -n "$PORT"

"$GEARCTL" --remote "127.0.0.1:$PORT" "$NSTORE" init
"$GEARCTL" --remote "127.0.0.1:$PORT" "$NSTORE" import "$SRC" net:v1
test -n "$(ls "$NOBJ/pack")"   # the objects live in the DAEMON's store
"$GEARCTL" --remote "127.0.0.1:$PORT" "$NSTORE" stats > "$WORK/rstats"
grep -q "reachable" "$WORK/rstats"
# Every referenced file present remotely: "N / N present" with N > 0.
grep -q "referenced gear files on remote: \([1-9][0-9]*\) / \1 present" \
  "$WORK/rstats"

# Restart the daemon: SIGTERM must shut it down cleanly (exit 0), and a new
# process on the same port over the same store must already hold everything
# — the re-import moves zero bytes over the wire.
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
grep -q "shut down" "$WORK/serve.err"
grep -q "[1-9][0-9]* store syncs)" "$WORK/serve.err"
"$GEARCTL" serve --addr "127.0.0.1:$PORT" --store-dir "$NOBJ" \
  > "$WORK/serve2.out" 2> "$WORK/serve2.err" &
SERVE_PID=$!
wait_serving "$WORK/serve2.out"
"$GEARCTL" --remote "127.0.0.1:$PORT" "$NSTORE" import "$SRC" net:v2 \
  | grep -q "0 uploaded"
"$GEARCTL" --remote "127.0.0.1:$PORT" "$NSTORE" export net:v1 "$NOUT"
diff -r "$SRC" "$NOUT"
test "$("$GEARCTL" --remote "127.0.0.1:$PORT" "$NSTORE" \
  cat net:v1 app/hello.txt)" = "hello from gearctl"
# A remote lazy launch leaves the client's catalog alone too.
touch "$NSTORE/docker/sentinel"
"$GEARCTL" --remote "127.0.0.1:$PORT" --lazy "$NSTORE" launch net:v1 \
  > /dev/null 2>&1
test -e "$NSTORE/docker/sentinel"

# One object in the daemon's store damaged (its GZC1 magic overwritten): a
# re-import over --remote must fail naming it (exit 1) and push no manifest,
# instead of reading the damaged object as absent and the import as a dedup.
NSEG="$(first_segment "$NOBJ")"
NVICTIM="$(header_fp "$NSEG" 0)"
printf 'XXXX' | dd of="$NSEG" bs=1 seek=32 conv=notrunc 2>/dev/null
if "$GEARCTL" --remote "127.0.0.1:$PORT" "$NSTORE" import "$SRC" net:bad \
  > /dev/null 2> "$WORK/netbad.err"
then exit 1; else test $? -eq 1; fi
grep -q "$NVICTIM" "$WORK/netbad.err"
if "$GEARCTL" --remote "127.0.0.1:$PORT" "$NSTORE" images | grep -q "net:bad"
then exit 1; fi
# A remote export over it fails the same way, naming the path too.
if "$GEARCTL" --remote "127.0.0.1:$PORT" "$NSTORE" export net:v1 \
  "$WORK/netbadout" > /dev/null 2> "$WORK/netbadexport.err"
then exit 1; else test $? -eq 1; fi
grep -q "export of \(app/hello.txt\|app/blob.bin\|etc/app.conf\) ($NVICTIM)" \
  "$WORK/netbadexport.err"

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""

# A damaged chunk of a chunked file in the daemon's store is corrupt data
# over --remote, not an absent file. With the daemon down, a local import
# with a chunk threshold adds model.bin (4 chunks) to its store; the daemon
# restarts, the client imports the same tree (all deduplicated), and one of
# the new chunks is damaged. A re-import then fails naming the file instead
# of taking it for absent, and export and a lazy launch's backfill fail
# naming its path.
# The chunked import appends one batch: the new chunks, then the manifest.
KBATCH="$(file_size "$NSEG")"
"$GEARCTL" --store-dir "$NOBJ" "$WORK/kstore" init > /dev/null
"$GEARCTL" --store-dir "$NOBJ" "$WORK/kstore" import "$CSRC" chunky:v1 65536 \
  > /dev/null
KFILE="$(md5sum < "$CSRC/model.bin" | cut -c1-32)"
KVICTIM="$(header_fp "$NSEG" "$KBATCH")"
test -n "$KVICTIM"
"$GEARCTL" serve --addr "127.0.0.1:$PORT" --store-dir "$NOBJ" \
  > "$WORK/serve3.out" 2> "$WORK/serve3.err" &
SERVE_PID=$!
wait_serving "$WORK/serve3.out"
"$GEARCTL" --remote "127.0.0.1:$PORT" "$NSTORE" import "$CSRC" chunky:v1 \
  | grep -q "0 uploaded"
printf 'XXXX' | dd of="$NSEG" bs=1 seek=$((KBATCH + 32)) conv=notrunc \
  2>/dev/null
if "$GEARCTL" --remote "127.0.0.1:$PORT" "$NSTORE" import "$CSRC" chunky:bad \
  > /dev/null 2> "$WORK/chunkbad.err"
then exit 1; else test $? -eq 1; fi
grep -q "corrupt_data: collision probe of $KFILE" "$WORK/chunkbad.err"
if "$GEARCTL" --remote "127.0.0.1:$PORT" "$NSTORE" export chunky:v1 \
  "$WORK/chunkout" > /dev/null 2> "$WORK/chunkexport.err"
then exit 1; else test $? -eq 1; fi
grep -q "corrupt_data: export of model.bin ($KFILE)" "$WORK/chunkexport.err"
if "$GEARCTL" --remote "127.0.0.1:$PORT" --lazy "$NSTORE" launch chunky:v1 \
  > /dev/null 2> "$WORK/chunklaunch.err"
then exit 1; else test $? -eq 1; fi
grep -q "corrupt_data: prefetch of model.bin ($KFILE)" "$WORK/chunklaunch.err"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""

# The flipped literal over --remote: the daemon checks each record's CRC-32C
# on every read, so export, a lazy launch and a re-import fail naming the
# file, as they do locally; scrub of the daemon's store counts it corrupt.
LROBJ="$WORK/litrobj"
LRSTORE="$WORK/litrstore"
"$GEARCTL" serve --addr 127.0.0.1:0 --store-dir "$LROBJ" \
  > "$WORK/serve4.out" 2> "$WORK/serve4.err" &
SERVE_PID=$!
wait_serving "$WORK/serve4.out"
LPORT="$(sed -n 's/^serving on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' \
  "$WORK/serve4.out")"
"$GEARCTL" --remote "127.0.0.1:$LPORT" "$LRSTORE" init > /dev/null
"$GEARCTL" --remote "127.0.0.1:$LPORT" "$LRSTORE" import "$LSRC" lit:v1 \
  > /dev/null
flip_literal "$LROBJ"
if "$GEARCTL" --remote "127.0.0.1:$LPORT" "$LRSTORE" export lit:v1 \
  "$WORK/litrout" > /dev/null 2> "$WORK/litrexport.err"
then exit 1; else test $? -eq 1; fi
grep -q "export of lit.txt ($LFP)" "$WORK/litrexport.err"
if "$GEARCTL" --remote "127.0.0.1:$LPORT" --lazy "$LRSTORE" launch lit:v1 \
  > /dev/null 2> "$WORK/litrlaunch.err"
then exit 1; else test $? -eq 1; fi
grep -q "prefetch of lit.txt ($LFP)" "$WORK/litrlaunch.err"
if "$GEARCTL" --remote "127.0.0.1:$LPORT" "$LRSTORE" import "$LSRC" lit:v2 \
  > /dev/null 2> "$WORK/litrimport.err"
then exit 1; else test $? -eq 1; fi
grep -q "collision probe of $LFP" "$WORK/litrimport.err"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
if "$GEARCTL" --store-dir "$LROBJ" "$LITSTORE" scrub > "$WORK/litrscrub.out"
then exit 1; else test $? -eq 1; fi
grep -q "1 corrupt" "$WORK/litrscrub.out"

# A daemon killed mid-push: SIGKILL `serve` as soon as the first upload of a
# large import is acknowledged. A restarted daemon over the same store
# serves what was acknowledged, the import run again exits 0 and uploads
# the rest, the export is byte-identical, and scrub finds nothing corrupt.
BSRC="$WORK/bigsrc"
KOBJ="$WORK/killobj"
KSTORE="$WORK/killstore"
awk -v dir="$BSRC" 'BEGIN {
  srand(7)
  for (d = 0; d < 40; d++) system("mkdir -p " dir "/d" d)
  for (i = 0; i < 3000; i++) {
    f = sprintf("%s/d%d/f%04d.txt", dir, i % 40, i)
    for (j = 0; j < 30; j++) printf "%d %d %.9f\n", i, j, rand() > f
    close(f)
  }
}'
"$GEARCTL" serve --addr 127.0.0.1:0 --store-dir "$KOBJ" \
  > "$WORK/serve5.out" 2> "$WORK/serve5.err" &
SERVE_PID=$!
wait_serving "$WORK/serve5.out"
KPORT="$(sed -n 's/^serving on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' \
  "$WORK/serve5.out")"
"$GEARCTL" --remote "127.0.0.1:$KPORT" "$KSTORE" init > /dev/null
"$GEARCTL" --remote "127.0.0.1:$KPORT" "$KSTORE" import "$BSRC" big:v1 \
  > /dev/null 2>&1 &
IMPORT_PID=$!
i=0
while test ! -s "$KOBJ/pack/00000001.seg"; do
  i=$((i+1)); test "$i" -le 4000; sleep 0.005
done
kill -KILL "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
# The client gives up once its retries find no daemon (or finished first).
wait "$IMPORT_PID" 2>/dev/null || true
"$GEARCTL" serve --addr "127.0.0.1:$KPORT" --store-dir "$KOBJ" \
  > "$WORK/serve6.out" 2> "$WORK/serve6.err" &
SERVE_PID=$!
wait_serving "$WORK/serve6.out"
"$GEARCTL" --remote "127.0.0.1:$KPORT" "$KSTORE" import "$BSRC" big:v1 \
  > "$WORK/kimport.out"
"$GEARCTL" --remote "127.0.0.1:$KPORT" "$KSTORE" export big:v1 "$WORK/kout" \
  > /dev/null
diff -r "$BSRC" "$WORK/kout"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
"$GEARCTL" --store-dir "$KOBJ" "$KSTORE" scrub > "$WORK/kscrub.out"
grep -q "3000 objects checked, .* 0 corrupt" "$WORK/kscrub.out"

# Strict endpoint validation: malformed HOST:PORT specs and serve flag
# conflicts are usage errors (exit 2), not crashes.
for BAD in nohost host: :123 host:abc host:0 host:99999; do
  if "$GEARCTL" --remote "$BAD" "$NSTORE" stats 2>/dev/null
  then exit 1; else test $? -eq 2; fi
done
if "$GEARCTL" serve --store-dir "$NOBJ" 2>/dev/null
then exit 1; else test $? -eq 2; fi
if "$GEARCTL" serve --addr 127.0.0.1:0 2>/dev/null
then exit 1; else test $? -eq 2; fi
if "$GEARCTL" serve --addr bad-endpoint --store-dir "$NOBJ" 2>/dev/null
then exit 1; else test $? -eq 2; fi
if "$GEARCTL" serve --addr 127.0.0.1:0 --store-dir "$NOBJ" \
  --remote 127.0.0.1:1 2>/dev/null
then exit 1; else test $? -eq 2; fi
if "$GEARCTL" --addr 127.0.0.1:0 "$NSTORE" stats 2>/dev/null
then exit 1; else test $? -eq 2; fi
if "$GEARCTL" --remote "127.0.0.1:$PORT" --store-dir "$NOBJ" "$NSTORE" stats \
  2>/dev/null
then exit 1; else test $? -eq 2; fi

# --- multi-site edge simulation (cluster-sim) -----------------------------
# A self-contained in-process storm: no store dir, no daemon. The summary
# must show per-site WAN lines and peer traffic; churn mode reports the
# crash and the rejoin; lazy mode and custom link speeds parse.
"$GEARCTL" cluster-sim > "$WORK/sim.out"
grep -q "cluster-sim: 2 sites x 3 nodes" "$WORK/sim.out"
grep -q "site 1: wan" "$WORK/sim.out"
grep -q "peer hits" "$WORK/sim.out"
"$GEARCTL" cluster-sim --sites 3 --nodes-per-site 2 --wan-mbps 25 \
  --lan-mbps 500 --mode lazy > "$WORK/sim2.out"
grep -q "3 sites x 2 nodes, wan 25 Mbps, lan 500 Mbps, lazy" "$WORK/sim2.out"
grep -q "site 2: wan" "$WORK/sim2.out"
"$GEARCTL" cluster-sim --churn > "$WORK/sim3.out"
grep -q "crashed s0" "$WORK/sim3.out"
grep -q "rejoined s0" "$WORK/sim3.out"

# Strict flag validation: missing, zero, and non-numeric values are usage
# errors (exit 2), and the cluster-sim flags are rejected everywhere else.
if "$GEARCTL" cluster-sim --sites 2>/dev/null; then exit 1
else test $? -eq 2; fi
if "$GEARCTL" cluster-sim --sites 0 2>/dev/null; then exit 1
else test $? -eq 2; fi
if "$GEARCTL" cluster-sim --nodes-per-site nope 2>/dev/null; then exit 1
else test $? -eq 2; fi
if "$GEARCTL" cluster-sim --wan-mbps 0 2>/dev/null; then exit 1
else test $? -eq 2; fi
if "$GEARCTL" cluster-sim --lan-mbps fast 2>/dev/null; then exit 1
else test $? -eq 2; fi
if "$GEARCTL" cluster-sim --mode sideways 2>/dev/null; then exit 1
else test $? -eq 2; fi
if "$GEARCTL" cluster-sim extra-arg 2>/dev/null; then exit 1
else test $? -eq 2; fi
if "$GEARCTL" cluster-sim --remote 127.0.0.1:9 2>/dev/null; then exit 1
else test $? -eq 2; fi
if "$GEARCTL" --sites 2 "$STORE" stats 2>/dev/null; then exit 1
else test $? -eq 2; fi
if "$GEARCTL" --churn "$STORE" stats 2>/dev/null; then exit 1
else test $? -eq 2; fi
if "$GEARCTL" serve --addr 127.0.0.1:0 --store-dir "$NOBJ" --mode lazy \
  2>/dev/null
then exit 1; else test $? -eq 2; fi

echo "gearctl smoke test passed"

"""Deterministic synthetic image trees for the gearctl benchmark.

The generator is the benchmark's own code: a SplitMix64 stream drives every
structural choice (names, sizes, which files change) and SHAKE-256 keyed by
(seed, file, revision) supplies the bytes, so neither depends on the code
under test or on the Python version. The same seed gives the same trees,
byte for byte; `Tree.digest()` proves it.

Counts are fixed by the spec and sizes are stratified over their range, so
trees from different seeds differ in content but hardly in total bytes,
which keeps run-to-run spread down when seeds vary.
"""

import hashlib
import math
import os

MASK64 = (1 << 64) - 1

# Exported files carry the process umask, not the source mode (vfs
# write_tree writes no metadata), so the trees use the umask-022 defaults
# and the export check can still compare modes.
FILE_MODE = 0o644
DIR_MODE = 0o755


class SplitMix64:
    def __init__(self, seed):
        self.state = seed & MASK64

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def uniform(self):
        return (self.next() >> 11) / float(1 << 53)

    def below(self, n):
        return self.next() % n

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, items, k):
        pool = list(items)
        self.shuffle(pool)
        return pool[:k]


def stratified_log_sizes(rng, count, lo, hi):
    """`count` sizes log-uniform in [lo, hi], one per equal-probability
    stratum, in random order."""
    span = math.log(hi) - math.log(lo)
    sizes = [int(math.exp(math.log(lo) + span * (i + rng.uniform()) / count))
             for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def alternate_by_size(sizes):
    """Compressible flags for `sizes`: every other file in size order, so
    about half the bytes are compressible whatever the seed."""
    flags = [False] * len(sizes)
    for rank, i in enumerate(sorted(range(len(sizes)), key=sizes.__getitem__)):
        flags[i] = rank % 2 == 0
    return flags


def _words(key, count):
    raw = hashlib.shake_256(key).digest(count * 6)
    letters = bytes(97 + b % 26 for b in raw)
    return [letters[i * 6: i * 6 + 3 + raw[i * 6] % 4] for i in range(count)]


class ContentMaker:
    """Bytes for one (file, revision). Compressible files are lines drawn
    from a seed-wide vocabulary with a random hex field on each line (LZSS
    finds the repeats, the hex field keeps the ratio realistic); the rest
    are raw SHAKE output."""

    def __init__(self, seed):
        self.seed = seed
        words = _words(b"vocab:%d" % seed, 256)
        raw = hashlib.shake_256(b"lines:%d" % seed).digest(64 * 6)
        self.lines = [b" ".join(words[raw[i * 6 + k]] for k in range(2 + raw[i * 6] % 5)) + b" "
                      for i in range(64)]

    def make(self, file_id, revision, size, compressible):
        key = b"%d:%d:%d" % (self.seed, file_id, revision)
        if not compressible:
            return hashlib.shake_256(key).digest(size)
        n = size // 16 + 1
        raw = hashlib.shake_256(key).digest(n * 5)
        hexed = raw.hex().encode()
        lines = self.lines
        parts = [lines[raw[i * 5] & 63] + hexed[i * 10 + 2: i * 10 + 10] + b"\n"
                 for i in range(n)]
        out = b"".join(parts)
        while len(out) < size:
            out += out
        return out[:size]


class Tree:
    """One image version: regular files (path -> bytes), symlinks
    (path -> target) and directories."""

    def __init__(self):
        self.files = {}
        self.links = {}
        self.dirs = set()

    def copy(self):
        t = Tree()
        t.files = dict(self.files)
        t.links = dict(self.links)
        t.dirs = set(self.dirs)
        return t

    def total_bytes(self):
        return sum(len(b) for b in self.files.values())

    def contents(self):
        """Distinct contents, as MD5 hex (the program's fingerprint hash)."""
        return {hashlib.md5(b).hexdigest() for b in self.files.values()}

    def entries(self):
        """path -> (kind, mode, payload digest or link target)."""
        out = {}
        for d in self.dirs:
            out[d] = ("dir", DIR_MODE, "")
        for p, b in self.files.items():
            out[p] = ("file", FILE_MODE, hashlib.sha256(b).hexdigest())
        for p, t in self.links.items():
            out[p] = ("link", None, t)
        return out

    def digest(self):
        h = hashlib.sha256()
        for path, (kind, mode, payload) in sorted(self.entries().items()):
            h.update(("%s\0%s\0%s\0%s\n" % (path, kind, mode, payload)).encode())
        return h.hexdigest()

    def write(self, root):
        os.makedirs(root, mode=DIR_MODE)
        for d in sorted(self.dirs):
            os.makedirs(os.path.join(root, d), mode=DIR_MODE, exist_ok=True)
        for p, b in self.files.items():
            with open(os.path.join(root, p), "wb") as f:
                f.write(b)
        for p, t in self.links.items():
            os.symlink(t, os.path.join(root, p))


def _add_parents(tree, path):
    parts = path.split("/")[:-1]
    for i in range(1, len(parts) + 1):
        tree.dirs.add("/".join(parts[:i]))


def _dir_pool(rng, prefix_names, count, max_depth):
    """`count` nested directory paths under the given top-level names."""
    dirs = list(prefix_names)
    while len(dirs) < count:
        parent = dirs[rng.below(len(dirs))]
        if parent.count("/") + 1 >= max_depth:
            continue
        dirs.append("%s/d%03x" % (parent, len(dirs)))
    return dirs


def small_files(seed, files, changed_share=0.10, dup_share=0.03, link_share=0.01):
    """Rootfs-like image of many small files plus a second version with
    `changed_share` of the regular files rewritten. Sizes log-uniform
    256 B..16 KiB, half compressible, `dup_share` duplicate contents."""
    rng = SplitMix64(seed * 2 + 1)
    maker = ContentMaker(seed)
    dirs = _dir_pool(rng, ["bin", "etc", "lib", "usr/lib", "usr/share", "var/lib"],
                     max(8, files // 16), 6)
    sizes = stratified_log_sizes(rng, files, 256, 16384)
    compressible = alternate_by_size(sizes)
    paths = ["%s/f%05d.dat" % (dirs[rng.below(len(dirs))], i) for i in range(files)]
    n_dups = int(files * dup_share)
    dup_of = {}
    for i in rng.sample(range(files // 2, files), n_dups):
        dup_of[i] = rng.below(files // 2)

    v1 = Tree()
    for i in range(files):
        _add_parents(v1, paths[i])
    for i in range(files):
        src = dup_of.get(i, i)
        v1.files[paths[i]] = maker.make(src, 0, sizes[src], compressible[src])
    for k, i in enumerate(rng.sample(range(files), int(files * link_share))):
        v1.links[paths[i] + ".so.%d" % k] = paths[i].rsplit("/", 1)[1]

    v2 = v1.copy()
    new_sizes = stratified_log_sizes(rng, files, 256, 16384)
    for i in rng.sample(range(files), int(files * changed_share)):
        v2.files[paths[i]] = maker.make(i, 1, new_sizes[i], compressible[i])
    return [v1, v2]


def version_chain(seed, versions, files, churn_files, moved_files=2, dup_share=0.02,
                  links=12):
    """`versions` consecutive versions of a tomcat-like series: a stable
    distro base (40% of files), stable environment files (30%) and app files
    (30%) of which `churn_files` are rewritten and `moved_files` added and
    removed every version. Sizes log-uniform 2 KiB..576 KiB (about 100 KB
    mean), half compressible."""
    rng = SplitMix64(seed * 2 + 2)
    maker = ContentMaker(seed)
    lo, hi = 2048, 576 * 1024
    n_base, n_env = files * 4 // 10, files * 3 // 10
    base_dirs = _dir_pool(rng, ["usr/lib", "usr/share", "etc"], 24, 4)
    env_dirs = _dir_pool(rng, ["opt/java/lib", "opt/java/conf"], 12, 4)
    app_dirs = _dir_pool(rng, ["usr/local/tomcat/lib", "usr/local/tomcat/webapps"], 16, 5)

    def place(i):
        pool = base_dirs if i < n_base else env_dirs if i < n_base + n_env else app_dirs
        return "%s/f%04d.bin" % (pool[rng.below(len(pool))], i)

    sizes = stratified_log_sizes(rng, files, lo, hi)
    compressible = alternate_by_size(sizes)
    paths = [place(i) for i in range(files)]
    dup_of = {i: rng.below(n_base) for i in rng.sample(range(n_base, files), int(files * dup_share))}

    v = Tree()
    for i in range(files):
        _add_parents(v, paths[i])
        src = dup_of.get(i, i)
        v.files[paths[i]] = maker.make(src, 0, sizes[src], compressible[src])
    for k, i in enumerate(rng.sample(range(n_base), links)):
        v.links[paths[i] + ".%d" % k] = paths[i].rsplit("/", 1)[1]

    chain = [v]
    live_app = list(range(n_base + n_env, files))
    next_id = files
    for r in range(1, versions):
        v = v.copy()
        new_sizes = stratified_log_sizes(rng, churn_files + moved_files, lo, hi)
        new_compressible = alternate_by_size(new_sizes)
        rewritten = rng.sample(live_app, churn_files)
        for i in rng.sample([i for i in live_app if i not in rewritten], moved_files):
            live_app.remove(i)
            del v.files[paths[i]]
        for _ in range(moved_files):
            paths.append(place(next_id))
            _add_parents(v, paths[next_id])
            rewritten.append(next_id)
            live_app.append(next_id)
            next_id += 1
        for i, size, comp in zip(rewritten, new_sizes, new_compressible):
            v.files[paths[i]] = maker.make(i, r, size, comp)
        chain.append(v)
    return chain

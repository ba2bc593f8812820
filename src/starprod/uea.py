"""PBW machinery for the universal enveloping algebra of a graded Lie algebra.

An element dict maps words (tuples of generator ids) to exact scalars (ints,
else Fractions); the algebra operations take element dicts only, {w: 1} for w.
A BasisOrder fixes which PBW normal form is meant: letters are ranked by
segment (negative / zero / positive degree), then by (degree, id) inside a
segment.  Rewriting ab -> ba + [a, b] is applied through a memoized
single-letter insertion and a memoized normal form per word, both kept per
order; the product of two words is the normal form of their concatenation.
The algebra's `memo.orders` keeps one order per segment sequence.

The action of one letter on one Verma-module word (`letter_action`, at the
bottom of the file, memoized in the algebra's `memo.actions`) is the step the
pairing matrices are built from: `shapovalov.pairing_matrix` takes each entry
one letter of y down from the matrix below.  It deliberately does not go
through BasisOrder: it straightens words with its own recursion and applies
the module relations at the right boundary, so the PBW projection (normal
ordering through BasisOrder, then `phi`) stays an independent route that
checks it.
"""

from __future__ import annotations

import itertools
from math import comb

from .scalars import ONE_POLY, ZERO_POLY, Polynomial

# -- letter orders -----------------------------------------------------------


class BasisOrder:
    """Total order on generators: by segment, then degree, then id."""

    def __init__(self, algebra, segments):
        self.algebra = algebra
        self.segments = tuple(segments)
        rank = {}
        for g in algebra.generators:
            seg = "neg" if g.degree < 0 else ("zero" if g.degree == 0 else "pos")
            rank[g.id] = (self.segments.index(seg), g.degree, g.id)
        self._rank = rank
        self._inserts = {}  # (sorted word, letter) -> normal form
        self._words = {}  # word -> normal form

    def key(self, gid):
        return self._rank[gid]

    def is_sorted(self, word):
        return all(self._rank[word[i]] <= self._rank[word[i + 1]] for i in range(len(word) - 1))

    def insert(self, word, g):
        """Normal form of word * g, for word already sorted: dict word -> scalar."""
        key = (word, g)
        hit = self._inserts.get(key)
        if hit is not None:
            return hit
        if not word or self._rank[word[-1]] <= self._rank[g]:
            out = {word + (g,): 1}
        else:
            head, last = word[:-1], word[-1]
            out = {}
            # (head last) g = (head g) last + head [last, g]
            for w1, c1 in self.insert(head, g).items():
                for w2, c2 in self.insert(w1, last).items():
                    out[w2] = out.get(w2, 0) + c1 * c2
            for h, k in self.algebra.bracket(last, g):
                for w1, c1 in self.insert(head, h).items():
                    out[w1] = out.get(w1, 0) + k * c1
            out = {w: c for w, c in out.items() if c}
        self._inserts[key] = out
        return out

    def nf_word(self, word):
        """PBW normal form of a single word, memoized per word: callers only
        read the dict.  The product of two words is nf_word(w1 + w2).  The
        fold starts at the longest sorted prefix, whose inserts never bracket."""
        hit = self._words.get(word)
        if hit is not None:
            return hit
        rank = self._rank
        k = next((i for i in range(1, len(word)) if rank[word[i - 1]] > rank[word[i]]), len(word))
        state = {word[:k]: 1}
        for g in word[k:]:
            nxt = {}
            for w, c in state.items():
                for w1, c1 in self.insert(w, g).items():
                    nxt[w1] = nxt.get(w1, 0) + c * c1
            state = {w: c for w, c in nxt.items() if c}
        self._words[word] = state
        return state


def _order(algebra, segments):
    order = algebra.memo.orders.get(segments)
    if order is None:
        order = algebra.memo.orders[segments] = BasisOrder(algebra, segments)
    return order


def phi_order(algebra):
    """Negative letters, then zero, then positive: the order behind phi."""
    return _order(algebra, ("neg", "zero", "pos"))


def pi_order(algebra):
    """Negative, positive, zero: the order of associativity's middle slot."""
    return _order(algebra, ("neg", "pos", "zero"))


# -- elements ----------------------------------------------------------------


def normal_form(order, x):
    """Rewrite an element dict into PBW normal form for `order`."""
    out = {}
    for word, c in x.items():
        for w1, c1 in order.nf_word(word).items():
            out[w1] = out.get(w1, 0) + c * c1
    return {w: c for w, c in out.items() if c}


def normal_form_random(order, word, rng):
    """Normal form of one word, resolving inversions in rng-chosen order.

    Exists so tests can watch every rewrite schedule land on the same answer.
    """
    terms = {tuple(word): 1}
    while True:
        pending = sorted(w for w in terms if not order.is_sorted(w))
        if not pending:
            return {w: c for w, c in terms.items() if c}
        w = pending[rng.randrange(len(pending))]
        c = terms.pop(w)
        if not c:
            continue
        spots = [i for i in range(len(w) - 1) if order.key(w[i]) > order.key(w[i + 1])]
        i = spots[rng.randrange(len(spots))]
        swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
        terms[swapped] = terms.get(swapped, 0) + c
        for h, k in order.algebra.bracket(w[i], w[i + 1]):
            wb = w[:i] + (h,) + w[i + 2 :]
            terms[wb] = terms.get(wb, 0) + c * k


def multiply(order, u, v):
    """Product of two element dicts, returned in normal form."""
    out = {}
    for w1, c1 in u.items():
        for w2, c2 in v.items():
            k = c1 * c2
            for w, c in order.nf_word(w1 + w2).items():
                out[w] = out.get(w, 0) + c * k
    return {w: c for w, c in out.items() if c}


def antipode(order, x):
    """S(g1...gk) = (-1)^k gk...g1, brought back to normal form."""
    out = {}
    for word, c in x.items():
        sign = -c if len(word) % 2 else c
        for w1, c1 in order.nf_word(tuple(reversed(word))).items():
            out[w1] = out.get(w1, 0) + sign * c1
    return {w: c for w, c in out.items() if c}


def mono_splits(word):
    """Two-slot coproduct splits of one word: (left, right, multiplicity).

    Runs of equal adjacent letters split independently with binomial
    multiplicities; slots keep the word's own letter order, so splits of a
    sorted word stay sorted.
    """
    runs = [(g, len(list(grp))) for g, grp in itertools.groupby(word)]
    out = []
    for picks in itertools.product(*(range(c + 1) for _, c in runs)):
        left, right, mult = [], [], 1
        for (g, c), k in zip(runs, picks):
            left += [g] * k
            right += [g] * (c - k)
            mult *= comb(c, k)
        out.append((tuple(left), tuple(right), mult))
    return out


def coproduct(x):
    """Coproduct into two tensor slots: dict (word, word) -> scalar.

    Input words are assumed sorted; splits of a sorted word stay sorted, so no
    renormalization happens here.
    """
    out = {}
    for word, c in x.items():
        for left, right, mult in mono_splits(word):
            key = (left, right)
            out[key] = out.get(key, 0) + c * mult
    return {k: c for k, c in out.items() if c}


def counit(x):
    return sum(c for w, c in x.items() if not w)


def word_name(algebra, word):
    """Human-readable form of a word, runs collapsed into powers."""
    if not word:
        return "1"
    parts = []
    for g, grp in itertools.groupby(word):
        k = len(list(grp))
        nm = algebra.gen_name(g)
        parts.append(nm if k == 1 else f"{nm}^{k}")
    return " ".join(parts)


def tensor_mul2(order, s, t):
    """Slotwise product of two 2-slot tensors."""
    out = {}
    for (a1, a2), c in s.items():
        for (b1, b2), d in t.items():
            for w1, c1 in order.nf_word(a1 + b1).items():
                for w2, c2 in order.nf_word(a2 + b2).items():
                    key = (w1, w2)
                    out[key] = out.get(key, 0) + c * d * c1 * c2
    return {k: c for k, c in out.items() if c}


# -- projections and the character -------------------------------------------


def mono_degree(algebra, word):
    return sum(algebra.degree(g) for g in word)


def phi(algebra, x):
    """Project onto the zero-degree enveloping subalgebra along the two-sided
    ideal spanned by words with a leading negative or trailing positive letter."""
    nf = normal_form(phi_order(algebra), x)
    return {w: c for w, c in nf.items() if all(algebra.degree(g) == 0 for g in w)}


def char_eval(algebra, x):
    """Evaluate a zero-degree element under the scaled character: each letter g
    becomes λ·χ(g).  Returns a Polynomial in λ."""
    acc = {}
    for word, c in x.items():
        val = c
        for g in word:
            if algebra.degree(g) != 0:
                raise ValueError(f"char_eval: letter {algebra.gen_name(g)} has nonzero degree")
            val *= algebra.chi(g)
        if val:
            acc[len(word)] = acc.get(len(word), 0) + val
    if not acc:
        return Polynomial()
    coeffs = [0] * (max(acc) + 1)
    for k, v in acc.items():
        coeffs[k] = v
    return Polynomial(coeffs)


# -- Verma module action ------------------------------------------------------
#
# side=+1: the highest-weight module with basis U(n₋)·v, where positive letters
# kill v and a zero letter h acts by λ·χ(h).  side=-1: the mirror, with basis
# U(n₊)·v, negative letters killing v and h acting by -λ·χ(h).  Module words
# are kept sorted ascending by (degree, id).


def letter_action(algebra, g, word, side):
    """g · (word · v) as a tuple of (module word, Polynomial in λ) pairs."""
    key = (side, g, word)
    hit = algebra.memo.actions.get(key)
    if hit is not None:
        return hit
    dg = algebra.degree(g)
    inserts = dg < 0 if side > 0 else dg > 0
    if not word:
        if inserts:
            out = (((g,), ONE_POLY),)
        elif dg == 0:
            cval = algebra.chi(g) if side > 0 else -algebra.chi(g)
            out = (((), Polynomial((0, cval))),) if cval else ()
        else:
            out = ()
    elif inserts and (dg, g) <= (algebra.degree(word[0]), word[0]):
        out = (((g,) + word, ONE_POLY),)
    else:
        w0, rest = word[0], word[1:]
        acc = {}
        # g w0 (rest·v) = w0 (g · rest·v) + [g, w0] (rest·v)
        for w1, p1 in letter_action(algebra, g, rest, side):
            for w2, p2 in letter_action(algebra, w0, w1, side):
                acc[w2] = acc.get(w2, ZERO_POLY) + p1 * p2
        for h, k in algebra.bracket(g, w0):
            for w1, p1 in letter_action(algebra, h, rest, side):
                acc[w1] = acc.get(w1, ZERO_POLY) + p1.scale(k)
        out = tuple((w, p) for w, p in sorted(acc.items()) if p)
    algebra.memo.actions[key] = out
    return out

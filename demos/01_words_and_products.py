"""Words over {x, y} and the two products.

Multiple zeta values have two multiplication rules: the series product,
encoded by the harmonic (quasi-shuffle) product on z-words, and the
iterated-integral product, encoded by the shuffle product on letters.
This demo walks through both on small examples.
"""

from mzvkit import NcPoly, harmonic, s_map, shuffle, sigma, word_of_index
from mzvkit.polys import index_of_word, word_str

z = NcPoly.from_index

print("== words and indices ==")
w = word_of_index((1, 2))
print("index (1,2)  ->  word", word_str(w))
print("word yyx     ->  index", index_of_word(w))
print()

print("== shuffle product (integral multiplication) ==")
print("x sh y      =", shuffle(NcPoly.from_str("x"), NcPoly.from_str("y")))
print("yx sh yx    =", shuffle(NcPoly.from_str("yx"), NcPoly.from_str("yx")))
print("   (this encodes zeta(2)^2 = 2 zeta(2,2) + 4 zeta(1,3))")
print()

print("== harmonic product (series multiplication) ==")
print("z2 * z3     =", harmonic(z((2,)), z((3,))))
print("   (zeta(2) zeta(3) = zeta(2,3) + zeta(3,2) + zeta(5))")
print("z1 * z1     =", harmonic(z((1,)), z((1,))))
print()

print("== the contraction map behind the star values ==")
print("sigma(y)    =", sigma(NcPoly.from_str("y")))
print("S(z1 z2)    =", s_map(z((1, 2))), "  (= z-words of all contractions of (1,2))")
print("S(z1 z1 z2) =", s_map(z((1, 1, 2))))
print()

print("Both products are commutative and associative; try it:")
a, b = z((1, 2)), z((2,))
print("  z12 * z2 == z2 * z12 :", harmonic(a, b) == harmonic(b, a))
print("  yx sh yyx == yyx sh yx :", shuffle(a, b) == shuffle(b, a))

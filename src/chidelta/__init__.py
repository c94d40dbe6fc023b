"""Certificates for connected graphs whose chromatic number equals their
maximum degree: a clique of that size, a high odd hole (chordless odd cycle
of length at least five whose vertices all have degree at least the maximum
degree minus one), or identification of the unique exception, the complement
of the 7-cycle."""

"""Physical constants (exact SI values where defined)."""

PLANCK_H = 6.62607015e-34        # J*s
ATOMIC_MASS_KG = 1.66053906660e-27  # kg per unified atomic mass unit
ELEMENTARY_CHARGE = 1.602176634e-19  # C
SPEED_OF_LIGHT = 299792458.0     # m/s

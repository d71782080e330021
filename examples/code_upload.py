"""Uploading user code for secure server-side execution.

The paper's most "active" feature: an authorised user uploads their own
analysis code, which runs in a sandbox *next to the data* on the file
server — the multi-hundred-megabyte dataset never crosses the network,
only the analysis result does.

Uploaded code runs through the same pipeline as an XUIS operation
(fetch, unpack, execute, collect), under the strict upload policy.  Also
demonstrates the sandbox refusing hostile uploads, and the batch-file
mechanism the implementation section describes.

Run:  python examples/code_upload.py
"""

import tempfile

from repro import build_turbulence_archive, pack_code_archive
from repro.errors import AuthorizationError, SandboxViolation

COLID = "RESULT_FILE.DOWNLOAD_RESULT"

# A legitimate analysis: kinetic energy of the velocity field.  Contract:
# read INPUT_FILENAME, take PARAMS, write output to relative filenames.
KINETIC_ENERGY = b"""
import struct, array

fh = open(INPUT_FILENAME, 'rb')
data = fh.read()
fh.close()
nx, ny, nz = struct.unpack('<iii', data[4:16])
count = nx * ny * nz

total = 0.0
offset = 16
for _component in range(3):          # u, v, w
    values = array.array('f')
    values.frombytes(data[offset:offset + 4 * count])
    for value in values:
        total += value * value
    offset += 4 * count

out = open('energy.txt', 'w')
out.write('kinetic energy = ' + str(0.5 * total / count))
out.close()
print('analysed', count, 'grid points')
"""

# A hostile upload: tries to read outside its working directory.
HOSTILE = b"""
secrets = open('../../etc/passwd').read()
"""


def main() -> None:
    archive = build_turbulence_archive(n_simulations=1, timesteps=1, grid=16)
    with tempfile.TemporaryDirectory(prefix="easia-upload-") as sandbox:
        run(archive, archive.make_engine(sandbox))


def run(archive, engine) -> None:
    """The walkthrough, on an engine whose sandbox ``main`` removes."""
    row = archive.result_rows()[0]

    member = archive.users.user("turbulence")
    guest = archive.users.user("guest")

    # -- authorised upload runs next to the data ---------------------------
    result = engine.run_upload(
        COLID, row, pack_code_archive({"KineticEnergy.py": KINETIC_ENERGY}),
        "KineticEnergy", user=member,
    )
    print("analysis output:", result.outputs["energy.txt"].decode())
    print("code stdout    :", result.stdout.strip())
    print(
        f"dataset stayed server-side ({result.dataset_bytes:,} B); "
        f"only {result.output_bytes} B shipped"
    )
    print("\nbatch script generated by the startup servlet:")
    print(result.batch_script.render())

    # -- guests are refused -------------------------------------------------
    try:
        engine.run_upload(
            COLID, row, pack_code_archive({"X.py": b"pass"}), "X", user=guest
        )
    except AuthorizationError as exc:
        print("guest upload refused:", exc)

    # -- hostile code is confined -------------------------------------------
    try:
        engine.run_upload(
            COLID, row, pack_code_archive({"Hostile.py": HOSTILE}),
            "Hostile", user=member,
        )
    except SandboxViolation as exc:
        print("sandbox stopped hostile upload:", exc)

    # -- execution statistics accumulate -------------------------------------
    print("\noperation statistics:")
    print(engine.stats.report())


if __name__ == "__main__":
    main()

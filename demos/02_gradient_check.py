"""Verifying the hand-rolled backward pass with finite differences.

The decoder's gradients are computed by a small reverse-mode engine written
for this package. This script builds a one-block decoder (two heads) with a
classifier head and the asymmetric loss, then compares every analytic
gradient against central finite differences. It also breaks the gradient on
purpose to show that the check actually catches errors.
"""

from adds.optim import decoder_gradcheck_loss, grad_check


def main():
    loss_fn, params = decoder_gradcheck_loss(dims=6, depth=1)
    n = sum(p.value.size for p in params)
    print(f"checking {n} parameters through 1 decoder block + head + loss ...")
    err = grad_check(loss_fn, params)
    print(f"max relative error: {err:.3e}  "
          f"({'OK' if err < 1e-4 else 'BROKEN'} at threshold 1e-4)")

    # now sabotage the loss: its value depends on a weight whose gradient
    # path is silently dropped, exactly the kind of bug the check exists for
    err = grad_check(*decoder_gradcheck_loss(dims=6, depth=1, corrupt=True))
    print(f"after corruption:   {err:.3e}  "
          f"({'OK' if err < 1e-4 else 'BROKEN'} at threshold 1e-4)")


if __name__ == "__main__":
    main()

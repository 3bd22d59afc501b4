/* A recursive call that passes its own formals back swapped: f(b, a)
 * inside f(a, b). A call binds every formal from the arguments evaluated
 * in the caller's state, so b must receive a's value from before the call,
 * not the one the same call just bound to a. The arithmetic arguments make
 * the two readings differ even though formals are bound weakly. */
int r;
int s;

int f(int a, int b) {
	if (a > 20) { return a - b; }
	if (b < 0) { return f(b + 3, a); }
	return f(b, a + 1);
}

int g(int x, int y, int z) {
	if (x > 8) { return x + y + z; }
	return g(z, x + 2, y - 1);
}

int main() {
	r = f(1, 2);
	s = g(0, 1, 2);
	return r + s;
}

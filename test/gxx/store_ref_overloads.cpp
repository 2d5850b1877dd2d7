// g++: 35
// A store through a returned reference takes the type of the overload
// the call picks, though another overload returns a different type.
double g = 0;
int k = 0;
double &r(int) { return g; }
int &r(double) { return k; }
int main() { r(1) = 7; return (int)(g / 2 * 10); }
